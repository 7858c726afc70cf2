package snapshot

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// codecFiles are the committed snapshot files: the two version-1 goldens
// and the experiments package's fuzz-corpus snapshots.
var codecFiles = []string{
	filepath.Join("testdata", "golden_v1.snap.json"),
	filepath.Join("testdata", "pre_overload_v1.snap.json"),
	filepath.Join("..", "experiments", "testdata", "snapshots", "fuzz-seed11.snap.json"),
	filepath.Join("..", "experiments", "testdata", "snapshots", "fuzz-seed23.snap.json"),
	filepath.Join("..", "experiments", "testdata", "snapshots", "fuzz-seed37.snap.json"),
}

type codecInput struct {
	name string
	data []byte
}

// codecInputs returns the committed files plus a malformed-input table
// derived from the golden file: trailing bytes, envelope field and
// version variants, duplicate keys, and per section a flipped byte, the
// section missing, and an unknown field under a valid checksum.
func codecInputs(t testing.TB) []codecInput {
	t.Helper()
	var in []codecInput
	for _, f := range codecFiles {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, codecInput{filepath.Base(f), raw})
	}
	golden := in[0].data
	head := []byte(`{"version":1,`)
	if !bytes.HasPrefix(golden, head) {
		t.Fatalf("golden file does not start with %s", head)
	}
	body := golden[len(head):]
	withHead := func(h string) []byte { return append([]byte(h), body...) }
	in = append(in,
		codecInput{"trailing }", append(bytes.Clone(golden), '}')},
		codecInput{"trailing ]", append(bytes.Clone(golden), ']')},
		codecInput{"trailing x", append(bytes.Clone(golden), 'x')},
		codecInput{"trailing value", append(bytes.Clone(golden), " {}"...)},
		codecInput{"trailing whitespace", append(bytes.Clone(golden), " \t\r\n"...)},
		codecInput{"leading whitespace", append([]byte("\n "), golden...)},
		codecInput{"unknown field v1", withHead(`{"version":1,"extra":0,`)},
		codecInput{"unknown field v2", withHead(`{"version":2,"extra":0,`)},
		codecInput{"version 2", withHead(`{"version":2,`)},
		codecInput{"version 0", withHead(`{"version":0,`)},
		codecInput{"missing version", withHead(`{`)},
		codecInput{"null version", withHead(`{"version":null,`)},
		codecInput{"string version", withHead(`{"version":"1",`)},
		codecInput{"float version", withHead(`{"version":1.5,`)},
		codecInput{"case-variant Version", withHead(`{"Version":1,`)},
		codecInput{"duplicate version", withHead(`{"version":2,"version":1,`)},
		codecInput{"duplicate version, last bad", withHead(`{"version":1,"version":2,`)},
		codecInput{"duplicate meta", withHead(`{"version":1,"meta":{"Bogus":1},`)},
		codecInput{"sums not an object", withHead(`{"version":1,"sums":"x",`)},
		codecInput{"empty", nil},
		codecInput{"null", []byte(`null`)},
		codecInput{"array", []byte(`[]`)},
		codecInput{"empty object", []byte(`{}`)},
		codecInput{"not json", []byte(`not json`)},
		codecInput{"truncated", golden[:len(golden)/2]},
	)

	var env map[string]json.RawMessage
	if err := json.Unmarshal(golden, &env); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"meta", "spec", "state"} {
		sec := env[section]
		i := bytes.IndexAny(sec, "0123456789")
		if i < 0 {
			t.Fatalf("%s section has no digit to flip", section)
		}
		flipped := bytes.Clone(sec)
		flipped[i] ^= 1
		in = append(in, codecInput{"flipped byte in " + section, bytes.Replace(golden, sec, flipped, 1)})

		missing := make(map[string]json.RawMessage, len(env))
		for k, v := range env {
			if k != section {
				missing[k] = v
			}
		}
		raw, err := json.Marshal(missing)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, codecInput{"missing " + section, raw})

		// Schema drift behind a valid checksum: the strict section decode
		// must catch it.
		drifted := append([]byte(`{"Bogus":1,`), sec[1:]...)
		withDrift := bytes.Replace(golden, sec, drifted, 1)
		withDrift = bytes.Replace(withDrift, []byte(Checksum(sec)), []byte(Checksum(drifted)), 1)
		in = append(in, codecInput{"unknown field in " + section, withDrift})
	}
	return in
}

// checkDecodeMatchesReference requires Decode to return the reference
// decoder's snapshot or its exact error, and Encode to reproduce the
// reference encoder's bytes for whatever decoded.
func checkDecodeMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Decode(data)
	want, wantErr := refDecode(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Decode err = %v, reference err = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("Decode err = %q, reference err = %q", gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode snapshot differs from the reference's: %v", Diff(got, want))
	}
	enc, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refEncode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, ref) {
		t.Fatalf("Encode bytes differ from the reference's (%d vs %d bytes)", len(enc), len(ref))
	}
}

// TestCodecMatchesReference holds Decode and Encode to the reference
// codec on the committed snapshot files and the malformed-input table,
// and requires every committed file but the pre-overload one (written
// before later additive fields existed, so its re-encoding gains them) to
// re-encode byte for byte.
func TestCodecMatchesReference(t *testing.T) {
	inputs := codecInputs(t)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			checkDecodeMatchesReference(t, in.data)
		})
	}
	for _, in := range inputs[:len(codecFiles)] {
		if in.name == "pre_overload_v1.snap.json" {
			continue
		}
		snap, err := Decode(in.data)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		enc, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, in.data) {
			t.Errorf("%s: decode and re-encode changed the bytes", in.name)
		}
	}
	// Anti-vacuity: the table reaches every kind of verdict.
	for _, want := range []string{"not a snapshot file", "missing version", "not supported", "malformed envelope", "section missing", "checksum mismatch", "malformed state section"} {
		found := false
		for _, in := range inputs {
			if _, err := refDecode(in.data); err != nil && strings.Contains(err.Error(), want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no input yields a %q error", want)
		}
	}
	_, gotErr := Encode(nil)
	_, wantErr := refEncode(nil)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("Encode(nil) err = %v, reference err = %v", gotErr, wantErr)
	}
}

// FuzzDecodeMatchesReference: on any input, Decode agrees with the
// reference decoder (equal snapshot or identical error) and Encode with
// the reference encoder. Plain go test runs the seed inputs.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, in := range codecInputs(f) {
		f.Add(in.data)
	}
	f.Fuzz(checkDecodeMatchesReference)
}
