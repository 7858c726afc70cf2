package snapshot

// WalkStates exposes the reflective walk behind DiffStates, without its
// DeepEqual fast path, so tests can compare the two.
var WalkStates = walkStates
