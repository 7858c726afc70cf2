package analysis

import "testing"

// The fixture defines its own parallelFor with the canonical signature;
// sweepsafe matches by name + shape, so the harness stays hermetic.
const sweepFixturePrelude = `package fixture

func parallelFor(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
`

func TestSweepSafeAllowsSlotDiscipline(t *testing.T) {
	runFixture(t, SweepSafe, sweepFixturePrelude+`
type cell struct {
	count int
	list  []int
}

func clean(n int) ([]float64, error) {
	slots := make([]float64, n)
	outs := make([]cell, n)
	err := parallelFor(n, func(i int) error {
		v := float64(i) * 2 // closure-local scratch: fine
		slots[i] = v        // index-addressed slot store: fine
		out := &outs[i]     // local pointer aimed at own slot: fine
		out.count++
		out.list = append(out.list, i)
		outs[i].count = out.count
		var local []int
		local = append(local, i) // local append: fine
		_ = local
		return nil
	})
	return slots, err
}

// A different index-parameter name is still the index parameter.
func cleanNamedCi(n int) error {
	results := make([]int, n)
	return parallelFor(n, func(ci int) error {
		results[ci] = ci
		return nil
	})
}
`)
}

func TestSweepSafeFlagsSharedWrites(t *testing.T) {
	runFixture(t, SweepSafe, sweepFixturePrelude+`
type counter struct{ n int }

func violations(n int) error {
	total := 0.0
	var all []int
	seen := map[int]bool{}
	slots := make([]float64, n)
	shared := &counter{}
	ch := make(chan int, n)
	return parallelFor(n, func(i int) error {
		total += float64(i)  // want sweepsafe
		all = append(all, i) // want sweepsafe
		seen[i] = true       // want sweepsafe
		slots[i+1] = 1       // want sweepsafe
		slots[0] = 2         // want sweepsafe
		shared.n++           // want sweepsafe
		ch <- i              // want sweepsafe
		return nil
	})
}

func annotated(n int) error {
	hits := 0
	return parallelFor(n, func(i int) error {
		//corralvet:ok sweepsafe demo fixture: intentional race stand-in
		hits++
		return nil
	})
}
`)
}

// TestSweepSafeFiresOnSeededBug is the anti-vacuity guarantee behind the
// acceptance criterion "seeding a shared-write bug into a parallelFor
// closure makes make vet fail": the exact bug shape must produce at
// least one finding, with the closure's call site attached as a related
// position.
func TestSweepSafeFiresOnSeededBug(t *testing.T) {
	pkg := checkFixture(t, "corral/internal/fixture", sweepFixturePrelude+`
func seeded(n int) (float64, error) {
	sum := 0.0
	err := parallelFor(n, func(i int) error {
		sum += float64(i)
		return nil
	})
	return sum, err
}
`)
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{SweepSafe})
	if len(diags) != 1 {
		t.Fatalf("seeded shared-write bug: want exactly 1 sweepsafe finding, got %v", diags)
	}
	d := diags[0]
	if d.Check != "sweepsafe" || d.Fix == "" {
		t.Errorf("finding missing check/fix: %+v", d)
	}
	if len(d.Related) != 1 {
		t.Fatalf("want the parallelFor call as a related position, got %+v", d.Related)
	}
	if d.Related[0].Pos.Line >= d.Pos.Line {
		t.Errorf("related parallelFor position %d should precede the write at %d", d.Related[0].Pos.Line, d.Pos.Line)
	}
}

// The module's worker pool is checked under its own name: pool.For
// closures obey the same slot discipline as parallelFor ones.
func TestSweepSafeChecksPoolFor(t *testing.T) {
	runFixture(t, SweepSafe, `package fixture

import "corral/internal/pool"

func sweep(n int) (float64, error) {
	sum := 0.0
	slots := make([]float64, n)
	err := pool.For(n, func(i int) error {
		slots[i] = float64(i)
		sum += slots[i] // want sweepsafe
		return nil
	})
	return sum, err
}
`)
}

// Unrelated helpers named parallelFor but with a different shape (no
// closure literal, or a multi-parameter closure) must not be checked.
func TestSweepSafeIgnoresOtherShapes(t *testing.T) {
	runFixture(t, SweepSafe, `package fixture

func parallelFor(n int, fn func(i, j int) error) error { return fn(0, 0) }

func other(n int) error {
	sum := 0
	return parallelFor(n, func(i, j int) error {
		sum += i + j // two-parameter closure: not the sweep convention
		return nil
	})
}
`)
}
