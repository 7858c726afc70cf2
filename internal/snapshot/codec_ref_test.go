package snapshot

// Reference codec: Encode and Decode as they stood before the envelope
// was assembled by hand and the version probe moved behind the strict
// decode. The function names carry a ref prefix and the envelope struct is
// declared inside each function (so json error messages still name it
// "envelope"); the code is otherwise unchanged. TestCodecMatchesReference
// and FuzzDecodeMatchesReference hold the production codec to this
// oracle: the same bytes out of Encode, and out of Decode either an equal
// snapshot or the identical error string.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// refEncode serializes the snapshot to its canonical byte form.
func refEncode(s *Snapshot) ([]byte, error) {
	type envelope struct {
		Version int             `json:"version"`
		Meta    json.RawMessage `json:"meta"`
		Spec    json.RawMessage `json:"spec"`
		State   json.RawMessage `json:"state"`
		Sums    sums            `json:"sums"`
	}
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
	env := envelope{
		Version: s.Version,
		Meta:    meta,
		Spec:    spec,
		State:   state,
		Sums:    sums{Meta: sum(meta), Spec: sum(spec), State: sum(state)},
	}
	return json.Marshal(&env)
}

// refDecode parses a snapshot, rejecting unknown versions, corrupted
// sections and schema drift with a clear error. It never returns a
// partially populated snapshot.
func refDecode(data []byte) (*Snapshot, error) {
	type envelope struct {
		Version int             `json:"version"`
		Meta    json.RawMessage `json:"meta"`
		Spec    json.RawMessage `json:"spec"`
		State   json.RawMessage `json:"state"`
		Sums    sums            `json:"sums"`
	}
	// Loose version probe first: a snapshot from a future schema must fail
	// on its version, not on whatever field it added.
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("snapshot: not a snapshot file: %w", err)
	}
	if probe.Version == nil {
		return nil, fmt.Errorf("snapshot: not a snapshot file: missing version")
	}
	if *probe.Version != Version {
		return nil, fmt.Errorf("snapshot: version %d not supported (this build reads version %d)", *probe.Version, Version)
	}
	var env envelope
	if err := refStrictUnmarshal(data, &env); err != nil {
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
	s := &Snapshot{Version: env.Version}
	if err := refStrictUnmarshal(env.Meta, &s.Meta); err != nil {
		return nil, fmt.Errorf("snapshot: malformed meta section: %w", err)
	}
	if err := refStrictUnmarshal(env.Spec, &s.Spec); err != nil {
		return nil, fmt.Errorf("snapshot: malformed spec section: %w", err)
	}
	if err := refStrictUnmarshal(env.State, &s.State); err != nil {
		return nil, fmt.Errorf("snapshot: malformed state section: %w", err)
	}
	return s, nil
}

// refStrictUnmarshal decodes JSON rejecting unknown fields and trailing
// data.
func refStrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
