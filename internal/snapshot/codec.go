package snapshot

// Versioned snapshot codec. The on-disk form is a JSON envelope holding
// the schema version, the three sections as raw JSON, and a sha256 per
// section:
//
//	{"version":1,"meta":{...},"spec":{...},"state":{...},
//	 "sums":{"meta":"<hex>","spec":"<hex>","state":"<hex>"}}
//
// Both directions run the plan codec (plancodec.go): one pass over
// per-type plans. Encode appends the envelope and the three sections
// straight into one buffer, byte for byte what json.Marshal of each
// section, wrapped in the envelope, gives (struct fields in declaration
// order, map keys sorted as strings, encoding/json's float format and
// HTML escaping). Its only error, for a NaN or infinite float, is the
// *json.UnsupportedValueError json.Marshal returns, met at the same value
// and wrapped with the same section name.
//
// Decode has two paths, and no option selects between them. The plan
// decoder walks the file once, in place, decoding each section straight
// into the Snapshot and checking each section's sha256 over its byte
// span. It accepts only input that encoding/json provably decodes to the
// same value:
//
//   - the envelope's keys in the order Encode writes them, version 1, and
//     JSON whitespace anywhere between tokens;
//   - known keys in exact case and in declaration order (so none
//     repeats); a left-out field keeps its zero value, as with
//     encoding/json;
//   - strings of printable ASCII without escapes ('<', '>' and '&'
//     excluded, since encoding/json writes them escaped);
//   - numbers in the JSON grammar, parsed as encoding/json parses them
//     (ParseInt/ParseUint with an overflow check, ParseFloat(s, 64));
//   - null for a pointer, slice, []byte or map, and [] as an empty non-nil
//     slice; map keys as canonical decimals, each once;
//   - sums that match the sections.
//
// Everything else — a non-canonical file, a checksum or parse failure, an
// unknown version — takes the encoding/json path (decodeJSON), which
// alone produces decoding errors. Results and error messages are
// therefore that path's by construction, and the decoded snapshot never
// aliases the input.
//
// The encoding/json path is strict by construction — it either returns
// the exact snapshot that was encoded or an error, never a partial
// restore:
//
//   - an unknown or newer version fails before any section is touched;
//   - a flipped byte anywhere in a section fails its checksum;
//   - an unknown field (schema drift) fails the strict section decode.
//
// The strict envelope decode runs first. Only when it fails, or finds no
// version or the wrong one, does a loose version probe re-read the file,
// so "not a snapshot file", "missing version" and "version N not
// supported" still take precedence over "malformed envelope".
//
// Encoding is deterministic: struct fields go out in declaration order,
// map keys sorted, floats shortest round-trip, so equal snapshots encode
// to equal bytes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// envelope is the decode-side view of the file; Encode writes the same
// shape by hand. Version is a pointer so a missing or null version is
// told apart from version 0.
type envelope struct {
	Version *int            `json:"version"`
	Meta    json.RawMessage `json:"meta"`
	Spec    json.RawMessage `json:"spec"`
	State   json.RawMessage `json:"state"`
	Sums    sums            `json:"sums"`
}

type sums struct {
	Meta  string `json:"meta"`
	Spec  string `json:"spec"`
	State string `json:"state"`
}

// Checksum is the per-section integrity hash (sha256, hex).
func Checksum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func sum(b []byte) string { return Checksum(b) }

// Encode serializes the snapshot to its canonical byte form.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("snapshot: encoding nil snapshot")
	}
	return encodePlans(s)
}

// Decode parses a snapshot, rejecting unknown versions, corrupted sections
// and schema drift with a clear error. It never returns a partially
// populated snapshot.
func Decode(data []byte) (*Snapshot, error) {
	if s, ok := decodePlans(data); ok {
		return s, nil
	}
	return decodeJSON(data)
}

// decodeJSON is Decode through encoding/json: the path for every file the
// plan decoder does not accept, and the source of every decoding error.
func decodeJSON(data []byte) (*Snapshot, error) {
	var env envelope
	err := strictUnmarshal(data, &env)
	if err != nil || env.Version == nil || *env.Version != Version {
		if perr := probeVersion(data); perr != nil {
			return nil, perr
		}
		// The probe accepts everything the strict decode accepts, so only
		// a strict failure gets here.
		return nil, fmt.Errorf("snapshot: malformed envelope: %w", err)
	}
	for _, sec := range []struct {
		name string
		raw  json.RawMessage
		want string
	}{
		{"meta", env.Meta, env.Sums.Meta},
		{"spec", env.Spec, env.Sums.Spec},
		{"state", env.State, env.Sums.State},
	} {
		if len(sec.raw) == 0 {
			return nil, fmt.Errorf("snapshot: %s section missing", sec.name)
		}
		if got := sum(sec.raw); got != sec.want {
			return nil, fmt.Errorf("snapshot: %s section corrupted (checksum mismatch)", sec.name)
		}
	}
	s := &Snapshot{Version: *env.Version}
	if err := strictUnmarshal(env.Meta, &s.Meta); err != nil {
		return nil, fmt.Errorf("snapshot: malformed meta section: %w", err)
	}
	if err := strictUnmarshal(env.Spec, &s.Spec); err != nil {
		return nil, fmt.Errorf("snapshot: malformed spec section: %w", err)
	}
	if err := strictUnmarshal(env.State, &s.State); err != nil {
		return nil, fmt.Errorf("snapshot: malformed state section: %w", err)
	}
	return s, nil
}

// probeVersion is the loose version check: a snapshot from a future
// schema must fail on its version, not on whatever field it added. It
// returns nil only for a well-formed JSON value whose version is this
// build's.
func probeVersion(data []byte) error {
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("snapshot: not a snapshot file: %w", err)
	}
	if probe.Version == nil {
		return fmt.Errorf("snapshot: not a snapshot file: missing version")
	}
	if *probe.Version != Version {
		return fmt.Errorf("snapshot: version %d not supported (this build reads version %d)", *probe.Version, Version)
	}
	return nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and any trailing
// byte other than whitespace. (Decoder.More alone would let a trailing
// '}' or ']' through.)
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
