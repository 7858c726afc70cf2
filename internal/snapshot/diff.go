package snapshot

// Field-level structural diff, used two ways: the restore audit compares a
// replayed live State against the captured one (any difference is a hard
// restore error and an invariant violation), and corralsnap diff renders
// the differences between two snapshot files for inspection.
//
// The walk is generic reflection: structs by field name, slices by index,
// maps by sorted key, pointers dereferenced. Leaves compare with
// reflect.DeepEqual, which compares floats with ==, not by bits: +0
// equals -0, and NaN differs from everything, itself included. A snapshot
// file cannot hold a NaN (encoding/json refuses to write one), so on
// decoded states the only bit difference the walk misses is a zero's sign.
//
// Both entry points first test reflect.DeepEqual on the whole value and
// walk only when it fails; the walk is what builds the per-field paths,
// and building them for every element of a matching state dominated the
// restore audit. DeepEqual holding implies the walk reports nothing: it
// also checks the unexported fields the walk skips, and the walk's leaves
// use DeepEqual themselves. When DeepEqual fails only on what the walk
// ignores (nil versus empty slices), the walk still reports nothing. The
// one divergence is a NaN in memory both sides share, which DeepEqual
// treats as equal without looking; decoded states hold no NaN.

import (
	"fmt"
	"reflect"
	"sort"
)

// MaxDiffs caps the entries a diff reports; past it the walk stops and the
// last entry says how.
const MaxDiffs = 40

// Diff returns human-readable field paths that differ between two
// snapshots (nil-safe; a nil vs non-nil pair is one difference).
func Diff(a, b *Snapshot) []string {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	return diffValues("", reflect.ValueOf(a), reflect.ValueOf(b))
}

// DiffStates diffs just the State sections — the restore-audit entry
// point.
func DiffStates(a, b *State) []string {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	return walkStates(a, b)
}

// walkStates is DiffStates without the DeepEqual fast path.
func walkStates(a, b *State) []string {
	return diffValues("state", reflect.ValueOf(a), reflect.ValueOf(b))
}

func diffValues(path string, a, b reflect.Value) []string {
	var out []string
	walkDiff(path, a, b, &out)
	return out
}

func walkDiff(path string, a, b reflect.Value, out *[]string) {
	if len(*out) >= MaxDiffs {
		return
	}
	if a.IsValid() != b.IsValid() {
		*out = append(*out, fmt.Sprintf("%s: only one side present", path))
		return
	}
	if !a.IsValid() {
		return
	}
	if a.Type() != b.Type() {
		*out = append(*out, fmt.Sprintf("%s: type %s vs %s", path, a.Type(), b.Type()))
		return
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			*out = append(*out, fmt.Sprintf("%s: nil vs non-nil", path))
			return
		}
		if a.IsNil() {
			return
		}
		walkDiff(path, a.Elem(), b.Elem(), out)
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			walkDiff(joinPath(path, t.Field(i).Name), a.Field(i), b.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len(); i++ {
			walkDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), out)
			if len(*out) >= MaxDiffs {
				appendTruncated(path, out)
				return
			}
		}
	case reflect.Map:
		keys := make([]string, 0, a.Len()+b.Len())
		byKey := make(map[string][2]reflect.Value)
		for _, k := range a.MapKeys() {
			ks := fmt.Sprintf("%v", k.Interface())
			byKey[ks] = [2]reflect.Value{a.MapIndex(k), b.MapIndex(k)}
			keys = append(keys, ks)
		}
		for _, k := range b.MapKeys() {
			ks := fmt.Sprintf("%v", k.Interface())
			if _, ok := byKey[ks]; !ok {
				byKey[ks] = [2]reflect.Value{a.MapIndex(k), b.MapIndex(k)}
				keys = append(keys, ks)
			}
		}
		sort.Strings(keys)
		for _, ks := range keys {
			pair := byKey[ks]
			walkDiff(fmt.Sprintf("%s[%s]", path, ks), pair[0], pair[1], out)
			if len(*out) >= MaxDiffs {
				appendTruncated(path, out)
				return
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			*out = append(*out, fmt.Sprintf("%s: %v vs %v", path, a.Interface(), b.Interface()))
		}
	}
}

func joinPath(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}

func appendTruncated(path string, out *[]string) {
	if len(*out) == MaxDiffs {
		*out = append(*out, fmt.Sprintf("%s: ... diff truncated at %d entries", path, MaxDiffs))
	}
}
