package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// Boundary values the random states draw from. The floats straddle
// encoding/json's switch between 'f' and 'e' format (1e-6 and 1e21) and
// the size walk's exact integer case (1e15), and include both zeros and
// subnormals; the strings hold bytes that encoding/json escapes (the HTML
// set, U+2028, control bytes) or replaces (invalid UTF-8).
var (
	randFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2.256, 1e-7, -1e-7, 1e-6, 9.99e-7,
		1e20, 1e21, -1e21, 1.5e300, 5e-324, 2.2250738585072014e-308 / 4,
		1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 1, 999999999999999.9, 9007199254740993,
		63999999.99999999, 1250000000, math.MaxFloat64, 123456789e-20,
	}
	randStrings = []string{
		"", "yarn-cs", "sim/corral/seed1", "a<b>&c", "line\u2028sep\u2029", "bad\xffutf8", "\xc3",
		`quote"back\slash`, "tab\tnl\n", "ü", "del\x7f", "&amp;",
	}
	randInts = []int64{0, 1, -1, 9, 10, 99, 100, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, 1 << 53}
)

// plainStrings are the randStrings the plan decoder takes as they are.
var plainStrings = randStrings[:3]

// fillRandom sets v, a settable value of a schema type, to a value drawn
// from the pools above (strings from strs), choosing nil or empty for
// about half of the slices, maps and pointers.
func fillRandom(rng *rand.Rand, v reflect.Value, strs []string) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64, reflect.Int32:
		n := randInts[rng.Intn(len(randInts))]
		if v.OverflowInt(n) {
			n = int64(rng.Int31()) - int64(rng.Int31())
		}
		v.SetInt(n)
	case reflect.Uint64:
		v.SetUint([]uint64{0, 1, 10, 1 << 63, math.MaxUint64, rng.Uint64()}[rng.Intn(6)])
	case reflect.Uint8: // a []byte element
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Float64:
		f := randFloats[rng.Intn(len(randFloats))]
		if rng.Intn(4) == 0 {
			f = float64(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(40)-20))
		}
		v.SetFloat(f)
	case reflect.String:
		v.SetString(strs[rng.Intn(len(strs))])
	case reflect.Slice:
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + rng.Intn(4)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fillRandom(rng, v.Index(i), strs)
			}
		}
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(rng, v.Elem(), strs)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i), strs)
		}
	case reflect.Map:
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for _, k := range []int64{2, 10, 100, -7, 31} {
				if rng.Intn(2) == 0 {
					continue
				}
				e := reflect.New(v.Type().Elem()).Elem()
				fillRandom(rng, e, strs)
				v.SetMapIndex(reflect.ValueOf(k).Convert(v.Type().Key()), e)
			}
		}
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// TestCodecRandomStatesMatchReference draws seeded snapshots over every
// plan kind and requires Encode to produce the reference encoder's bytes
// (within encodedSize's bound), Decode of them to agree with the
// reference decoder, and a NaN or infinity anywhere to give the reference
// encoder's exact error.
func TestCodecRandomStatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fast := 0
	const draws = 300
	for i := 0; i < draws; i++ {
		// Every other draw keeps to plain strings, which the plan decoder
		// reads without encoding/json.
		strs := randStrings
		if i%2 == 0 {
			strs = plainStrings
		}
		s := &Snapshot{}
		fillRandom(rng, reflect.ValueOf(s).Elem(), strs)
		s.Version = Version
		if i%10 == 0 {
			s.Version = rng.Intn(3)
		}
		got, err := Encode(s)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		want, err := refEncode(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("draw %d: Encode differs from the reference:\n got %s\nwant %s", i, got, want)
		}
		bound := encodedSize(metaPlan, unsafe.Pointer(&s.Meta)) + encodedSize(specPlan, unsafe.Pointer(&s.Spec)) +
			encodedSize(statePlan, unsafe.Pointer(&s.State)) + 300
		if len(got) > bound {
			t.Fatalf("draw %d: %d bytes encoded, over the size bound %d", i, len(got), bound)
		}
		if fastPathDecodes(got) {
			fast++
		}
		t.Run("", func(t *testing.T) { checkDecodeMatchesReference(t, got) })
	}
	t.Logf("%d of %d draws took the plan decoder", fast, draws)
	if fast < draws/4 {
		t.Errorf("only %d of %d draws took the plan decoder", fast, draws)
	}

	// Encode has no encoding/json path: its error must still be the
	// reference's, text and type, at the first bad value in json.Marshal's
	// order.
	sameErr := func(what string, s *Snapshot) {
		t.Helper()
		_, gotErr := Encode(s)
		_, wantErr := refEncode(s)
		var ue *json.UnsupportedValueError
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || !errors.As(gotErr, &ue) {
			t.Errorf("%s: Encode err = %v, reference err = %v", what, gotErr, wantErr)
		}
	}
	bad := &Snapshot{Version: Version}
	fillRandom(rng, reflect.ValueOf(bad).Elem(), randStrings)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad.Meta.SimTime = f
		sameErr(fmt.Sprintf("SimTime %v", f), bad)
	}
	bad.State.DES.Pending = []PendingEvent{{At: 1}, {At: math.Inf(-1)}}
	sameErr("-Inf in Meta and State", bad)
	bad.Meta.SimTime = 1
	sameErr("-Inf in State", bad)
}

// decodeAllocBudget is the bytes one Decode of golden_v1 allocates, as
// this test logged it (go test -v, go1.24 on amd64: 4984 B, 5096 B under
// -race), plus 5%: it catches an intermediate copy of the input or of a
// section coming back.
const decodeAllocBudget = 4984 * 1.05

// TestDecodeAllocBudget bounds the heap bytes one Decode of golden_v1
// allocates.
func TestDecodeAllocBudget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v1.snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDecode := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perDecode > decodeAllocBudget {
		t.Errorf("Decode of golden_v1 allocates %.0f B, budget %.0f B", perDecode, float64(decodeAllocBudget))
	} else {
		t.Logf("Decode of golden_v1 allocates %.0f B", perDecode)
	}
}
