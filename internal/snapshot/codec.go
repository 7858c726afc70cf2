package snapshot

// Versioned snapshot codec. The on-disk form is a JSON envelope holding
// the schema version, the three sections as raw JSON, and a sha256 per
// section:
//
//	{"version":1,"meta":{...},"spec":{...},"state":{...},
//	 "sums":{"meta":"<hex>","spec":"<hex>","state":"<hex>"}}
//
// Encode marshals each section once and appends the envelope around them
// straight into one buffer. The sections are json.Marshal output, already
// compact and HTML-escaped, so the bytes are exactly what marshalling the
// envelope struct would give, without re-compacting the sections.
//
// Decode is strict by construction — it either returns the exact snapshot
// that was encoded or an error, never a partial restore:
//
//   - an unknown or newer version fails before any section is touched;
//   - a flipped byte anywhere in a section fails its checksum;
//   - an unknown field (schema drift) fails the strict section decode.
//
// The strict envelope decode runs first. Only when it fails, or finds no
// version or the wrong one, does a loose version probe re-read the file,
// so "not a snapshot file", "missing version" and "version N not
// supported" still take precedence over "malformed envelope" while a valid
// file is scanned once.
//
// Encoding is deterministic: encoding/json emits struct fields in
// declaration order, sorts map keys, and formats floats shortest
// round-trip, so equal snapshots encode to equal bytes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
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
	meta, err := json.Marshal(&s.Meta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding meta: %w", err)
	}
	spec, err := json.Marshal(&s.Spec)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding spec: %w", err)
	}
	state, err := json.Marshal(&s.State)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding state: %w", err)
	}
	sumMeta, sumSpec, sumState := sum(meta), sum(spec), sum(state)
	// Room for the sections, the three 64-digit sums, and the keys and
	// version around them (under 100 bytes).
	out := make([]byte, 0, len(meta)+len(spec)+len(state)+3*64+128)
	out = append(out, `{"version":`...)
	out = strconv.AppendInt(out, int64(s.Version), 10)
	out = append(out, `,"meta":`...)
	out = append(out, meta...)
	out = append(out, `,"spec":`...)
	out = append(out, spec...)
	out = append(out, `,"state":`...)
	out = append(out, state...)
	out = append(out, `,"sums":{"meta":"`...)
	out = append(out, sumMeta...)
	out = append(out, `","spec":"`...)
	out = append(out, sumSpec...)
	out = append(out, `","state":"`...)
	out = append(out, sumState...)
	out = append(out, `"}}`...)
	return out, nil
}

// Decode parses a snapshot, rejecting unknown versions, corrupted sections
// and schema drift with a clear error. It never returns a partially
// populated snapshot.
func Decode(data []byte) (*Snapshot, error) {
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
