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
	return append(in, boundaryInputs(t, golden, env)...)
}

// boundaryInputs edits one section of the golden file at a time, re-sums
// it, and so reaches the edges of Decode's plan decoder behind valid
// checksums: whitespace, strings it must leave to encoding/json,
// case-variant and repeated keys, nulls, out-of-range and non-canonical
// numbers, and map keys that are not canonical decimals.
func boundaryInputs(t testing.TB, golden []byte, env map[string]json.RawMessage) []codecInput {
	t.Helper()
	resum := func(section string, edit func([]byte) []byte) []byte {
		sec := env[section]
		edited := edit(bytes.Clone(sec))
		if bytes.Equal(edited, sec) {
			t.Fatalf("edit left the %s section unchanged", section)
		}
		out := bytes.Replace(golden, sec, edited, 1)
		return bytes.Replace(out, []byte(Checksum(sec)), []byte(Checksum(edited)), 1)
	}
	// replace swaps the first occurrence of old in a section.
	replace := func(section, old, new string) []byte {
		return resum(section, func(sec []byte) []byte {
			return bytes.Replace(sec, []byte(old), []byte(new), 1)
		})
	}
	// setValue replaces the whole value after key (given as "Key":).
	setValue := func(section, key, value string) []byte {
		return resum(section, func(sec []byte) []byte {
			i := bytes.Index(sec, []byte(key))
			if i < 0 {
				t.Fatalf("%s section has no %s", section, key)
			}
			i += len(key)
			dec := json.NewDecoder(bytes.NewReader(sec[i:]))
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				t.Fatal(err)
			}
			return append(append(sec[:i:i], value...), sec[i+int(dec.InputOffset()):]...)
		})
	}
	spaced := resum("state", func(sec []byte) []byte {
		for _, r := range [][2]string{{`,"`, " ,\n\t\""}, {`":`, "\" :\r "}, {"[", "[ "}, {"]", "\t]"}} {
			sec = bytes.ReplaceAll(sec, []byte(r[0]), []byte(r[1]))
		}
		return sec
	})
	spaced = bytes.Replace(spaced, []byte(`{"version":1,"meta":`), []byte("{ \"version\" :\t1 ,\n\"meta\" : "), 1)
	spaced = bytes.Replace(spaced, []byte(`,"sums":{"meta":`), []byte(" , \"sums\" : { \"meta\" : "), 1)
	spaced = append(bytes.TrimSuffix(spaced, []byte(`}}`)), " } }\n"...)

	assignment := `{"JobID":1,"Racks":[0,1],"Start":0.5,"Priority":0,"EstLatency":12.25}`
	withKeys := func(keys ...string) string {
		var b strings.Builder
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`"` + k + `":` + assignment)
		}
		return `{"Assignments":{` + b.String() + `},"Makespan":20,"AvgCompletion":10,"Objective":1}`
	}
	flow := func(pathID string) string {
		return `[{"ID":1,"Src":0,"Dst":3,"Bytes":64000000,"Coflow":1,"JobID":1,"CrossRack":true,"PathID":` +
			pathID + `,"Remaining":1e-7,"Rate":1250000000,"Canceled":false}]`
	}
	in := []codecInput{
		{"whitespace between tokens", spaced},
		{"job Name with \\\"", replace("spec", `"Name":"golden"`, `"Name":"gol\"den"`)},
		{"job Name with <", replace("spec", `"Name":"golden"`, `"Name":"gol<den"`)},
		{"job Name non-ASCII", replace("spec", `"Name":"golden"`, `"Name":"gölden"`)},
		{"job Name invalid UTF-8", replace("spec", `"Name":"golden"`, "\"Name\":\"gol\xffden\"")},
		{"FailReason with \\\"", replace("state", `"FailReason":""`, `"FailReason":"lost \"am\""`)},
		{"FailReason with <", replace("state", `"FailReason":""`, `"FailReason":"a<b"`)},
		{"FailReason non-ASCII", replace("state", `"FailReason":""`, `"FailReason":"ü"`)},
		{"FailReason invalid UTF-8", replace("state", `"FailReason":""`, "\"FailReason\":\"\xc3\"")},
		{"case-variant key in state", replace("state", `"RNGDraws":40`, `"rngDraws":40`)},
		{"duplicate struct field in state", replace("state", `"RNGDraws":40,`, `"RNGDraws":40,"DES":{"Fired":5},`)},
		{"duplicate slice field in state", replace("state", `"FreeSlots":[2,2,2,2],`, `"FreeSlots":[2,2,2,2],"FreeSlots":[7],`)},
		{"fields out of order in state", replace("state", `"DES":`, `"RNGDraws":40,"DES":`)},
		{"null slice", setValue("state", `"FreeSlots":`, "null")},
		{"empty slice", setValue("state", `"FreeSlots":`, "[]")},
		{"null Net", setValue("state", `"Net":`, "null")},
		{"null DFS", setValue("state", `"DFS":`, "null")},
		{"null non-pointer struct", setValue("state", `"DES":`, "null")},
		{"null bool", setValue("state", `"DispatchPending":`, "null")},
		{"empty PathIntern.Key", replace("state", `"Key":"CgAAAAkAAAADAAAA"`, `"Key":""`)},
		{"null PathIntern.Key", replace("state", `"Key":"CgAAAAkAAAADAAAA"`, `"Key":null`)},
		{"unpadded PathIntern.Key", replace("state", `"Key":"BgAAAAUAAAA="`, `"Key":"BgAAAAUAAAA"`)},
		{"PathID 2147483647", setValue("state", `"Flows":`, flow("2147483647"))},
		{"PathID 2147483648", setValue("state", `"Flows":`, flow("2147483648"))},
		{"1.0 into int", replace("state", `"DeadCount":0`, `"DeadCount":1.0`)},
		{"1e2 into int", replace("state", `"DeadCount":0`, `"DeadCount":1e2`)},
		{"-0 into int", replace("state", `"DeadCount":0`, `"DeadCount":-0`)},
		{"leading zero", replace("state", `"DeadCount":0`, `"DeadCount":00`)},
		{"1e400 into float", replace("state", `"RepairBytes":192000000`, `"RepairBytes":1e400`)},
		{"-0 into float", replace("state", `"RepairBytes":192000000`, `"RepairBytes":-0`)},
		{"exponent float", replace("state", `"RepairBytes":192000000`, `"RepairBytes":1.92E+8`)},
		{"-0 into uint64", replace("state", `"RNGDraws":40`, `"RNGDraws":-0`)},
		{"max uint64", replace("state", `"RNGDraws":40`, `"RNGDraws":18446744073709551615`)},
		{"uint64 overflow", replace("state", `"RNGDraws":40`, `"RNGDraws":18446744073709551616`)},
		{"min int64", replace("state", `"CoflowID":1`, `"CoflowID":-9223372036854775808`)},
		{"int64 overflow", replace("state", `"CoflowID":1`, `"CoflowID":9223372036854775808`)},
		{"Plan.Assignments keys 10 and 2", setValue("spec", `"Plan":`, withKeys("10", "2"))},
		{"Plan.Assignments keys 2 and 10", setValue("spec", `"Plan":`, withKeys("2", "10"))},
		{"Plan.Assignments key +1", setValue("spec", `"Plan":`, withKeys("+1"))},
		{"Plan.Assignments key 01", setValue("spec", `"Plan":`, withKeys("01"))},
		{"Plan.Assignments keys 1 and -0", setValue("spec", `"Plan":`, withKeys("1", "-0", "0"))},
		{"Plan.Assignments duplicate key", setValue("spec", `"Plan":`, withKeys("3", "3"))},
		{"Plan.Assignments null value", setValue("spec", `"Plan":`, `{"Assignments":{"4":null},"Makespan":0,"AvgCompletion":0,"Objective":0}`)},
		{"empty Plan.Assignments", setValue("spec", `"Plan":`, `{"Assignments":{},"Makespan":0,"AvgCompletion":0,"Objective":0}`)},
	}
	return in
}

// fastPathDecodes is the test hook on Decode's fast path: it reports
// whether the plan decoder accepted data instead of leaving it to
// encoding/json.
func fastPathDecodes(data []byte) bool {
	_, ok := decodePlans(data)
	return ok
}

// TestDecodeFastPath is the plan decoder's anti-vacuity check: every
// committed snapshot file and the canonical boundary inputs take it, at
// least 20 table inputs fall back to encoding/json, and a decoded snapshot
// shares no memory with the bytes it came from.
func TestDecodeFastPath(t *testing.T) {
	inputs := codecInputs(t)
	for _, in := range inputs[:len(codecFiles)] {
		if !fastPathDecodes(in.data) {
			t.Errorf("%s: the plan decoder fell back", in.name)
		}
	}
	mustTake := map[string]bool{
		"whitespace between tokens":      true,
		"empty slice":                    true,
		"null slice":                     true,
		"null Net":                       true,
		"empty PathIntern.Key":           true,
		"null PathIntern.Key":            true,
		"PathID 2147483647":              true,
		"-0 into int":                    true,
		"-0 into float":                  true,
		"max uint64":                     true,
		"min int64":                      true,
		"Plan.Assignments keys 10 and 2": true,
		"Plan.Assignments null value":    true,
		"empty Plan.Assignments":         true,
	}
	fellBack := 0
	for _, in := range inputs[len(codecFiles):] {
		fast := fastPathDecodes(in.data)
		if !fast {
			fellBack++
		}
		if mustTake[in.name] {
			delete(mustTake, in.name)
			if !fast {
				t.Errorf("%s: the plan decoder fell back", in.name)
			}
		}
	}
	for name := range mustTake {
		t.Errorf("no table input named %q", name)
	}
	if fellBack < 20 {
		t.Errorf("only %d table inputs fall back to encoding/json, want at least 20", fellBack)
	}
	for _, in := range inputs[:len(codecFiles)] {
		data := bytes.Clone(in.data)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for i := range data {
			data[i] = 'x'
		}
		want, err := Decode(in.data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overwriting the input changed the decoded snapshot: %v", in.name, Diff(got, want))
		}
	}
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
