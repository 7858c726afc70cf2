package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"corral/internal/job"
)

func validateAll(t *testing.T, jobs []*job.Job) {
	t.Helper()
	seen := map[int]bool{}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", j.ID, err)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
	}
}

func TestW1Mix(t *testing.T) {
	jobs := W1(Config{Seed: 1})
	if len(jobs) != 90 {
		t.Fatalf("W1 default = %d jobs, want 90", len(jobs))
	}
	validateAll(t, jobs)
	var small, medium, large int
	for _, j := range jobs {
		switch j.Name {
		case "w1-small":
			small++
			if j.Slots() > 60 {
				t.Fatalf("small job with %d slots", j.Slots())
			}
		case "w1-medium":
			medium++
		case "w1-large":
			large++
			if j.Slots() < 500 {
				t.Fatalf("large job with only %d slots", j.Slots())
			}
		}
	}
	if small == 0 || medium == 0 || large == 0 {
		t.Fatalf("missing size class: %d/%d/%d", small, medium, large)
	}
	// Selectivity range: shuffle within [in/4, 4in].
	for _, j := range jobs {
		r := j.ShuffleBytes() / j.InputBytes()
		if r < 0.2 || r > 5 {
			t.Fatalf("selectivity %g outside the 4:1..1:4 envelope", r)
		}
	}
}

func TestW2Skew(t *testing.T) {
	jobs := W2(Config{Seed: 2})
	if len(jobs) != 400 {
		t.Fatalf("W2 default = %d jobs, want 400", len(jobs))
	}
	validateAll(t, jobs)
	giants := 0
	tiny := 0
	for _, j := range jobs {
		switch j.Name {
		case "w2-giant":
			giants++
			if got := j.ShuffleBytes() / j.InputBytes(); math.Abs(got-1.8) > 0.01 {
				t.Fatalf("giant shuffle ratio = %g, want 1.8", got)
			}
			if j.InputBytes() < 5000*GB {
				t.Fatalf("giant input = %g, want ~5.5TB", j.InputBytes())
			}
		case "w2-tiny":
			tiny++
			if j.InputBytes() > 200e6 {
				t.Fatalf("tiny job input = %g > 200MB", j.InputBytes())
			}
			if j.ShuffleBytes() > 75e6 {
				t.Fatalf("tiny job shuffle = %g > 75MB", j.ShuffleBytes())
			}
		}
	}
	if giants != 2 {
		t.Fatalf("giants = %d, want 2", giants)
	}
	if float64(tiny) < 0.85*float64(len(jobs)) {
		t.Fatalf("tiny fraction = %d/%d, want ~90%%", tiny, len(jobs))
	}
}

func TestW3MatchesTable1(t *testing.T) {
	jobs := W3(Config{Seed: 3, Jobs: 4000}) // large sample for stable stats
	validateAll(t, jobs)
	var inputs, shuffles, tasks []float64
	for _, j := range jobs {
		inputs = append(inputs, j.InputBytes())
		shuffles = append(shuffles, j.ShuffleBytes())
		tasks = append(tasks, float64(j.TotalTasks()))
	}
	p := func(v []float64, q float64) float64 {
		sort.Float64s(v)
		return v[int(q*float64(len(v)-1))]
	}
	// Table 1: input 7.1 / 162.3 GB, shuffle 6 / 71.5 GB at p50/p95.
	if got := p(inputs, 0.5) / GB; got < 5 || got > 10 {
		t.Fatalf("W3 median input = %.1f GB, want ~7.1", got)
	}
	if got := p(inputs, 0.95) / GB; got < 110 || got > 230 {
		t.Fatalf("W3 p95 input = %.1f GB, want ~162", got)
	}
	if got := p(shuffles, 0.5) / GB; got < 4 || got > 9 {
		t.Fatalf("W3 median shuffle = %.1f GB, want ~6", got)
	}
	if got := p(shuffles, 0.95) / GB; got < 50 || got > 100 {
		t.Fatalf("W3 p95 shuffle = %.1f GB, want ~71.5", got)
	}
}

func TestTPCHDags(t *testing.T) {
	jobs := TPCH(Config{Seed: 4}, 0)
	if len(jobs) != 15 {
		t.Fatalf("TPCH = %d queries, want 15", len(jobs))
	}
	validateAll(t, jobs)
	for _, j := range jobs {
		if !j.IsDAG() {
			t.Fatalf("query %s is not a DAG", j.Name)
		}
		if len(j.Stages) < 3 {
			t.Fatalf("query %s has %d stages, want >= 3 (scan+join+agg)", j.Name, len(j.Stages))
		}
		// Scans dominate bytes: input >> total shuffle (CPU/disk-bound).
		if j.ShuffleBytes() > j.InputBytes() {
			t.Fatalf("query %s shuffle %g > input %g", j.Name, j.ShuffleBytes(), j.InputBytes())
		}
	}
}

func TestScaleShrinksBytesNotStructure(t *testing.T) {
	full := W1(Config{Seed: 5})
	scaled := W1(Config{Seed: 5, Scale: 0.1})
	if len(full) != len(scaled) {
		t.Fatal("scale changed job count")
	}
	for i := range full {
		ratio := scaled[i].InputBytes() / full[i].InputBytes()
		if math.Abs(ratio-0.1) > 1e-9 {
			t.Fatalf("job %d scale ratio = %g, want 0.1", i, ratio)
		}
	}
}

func TestArrivalWindow(t *testing.T) {
	jobs := W1(Config{Seed: 6, ArrivalWindow: 3600})
	anyNonZero := false
	for _, j := range jobs {
		if j.Arrival < 0 || j.Arrival > 3600 {
			t.Fatalf("arrival %g outside window", j.Arrival)
		}
		if j.Arrival > 0 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Fatal("no job got a nonzero arrival")
	}
	batch := W1(Config{Seed: 6})
	for _, j := range batch {
		if j.Arrival != 0 {
			t.Fatal("batch workload has nonzero arrivals")
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := W3(Config{Seed: 7})
	b := W3(Config{Seed: 7})
	for i := range a {
		//corralvet:ok floateq exact identity intended: same-seed reruns must be bit-identical
		if a[i].InputBytes() != b[i].InputBytes() {
			t.Fatal("generation not deterministic")
		}
	}
	c := W3(Config{Seed: 8})
	same := true
	for i := range a {
		//corralvet:ok floateq exact identity intended: any bit of difference means a different workload
		if a[i].InputBytes() != c[i].InputBytes() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestRecurringPredictability(t *testing.T) {
	series := GenerateSeries(SeriesConfig{Seed: 9})
	if len(series) != 20 {
		t.Fatalf("series = %d, want 20", len(series))
	}
	mape := PredictionError(series, 7)
	// §2: ~6.5% average error. Our noise parameter is 6.5%, so the
	// averaging predictor should land near (slightly below) that.
	if mape <= 0.01 || mape > 0.12 {
		t.Fatalf("prediction MAPE = %g, want ~0.065", mape)
	}
}

func TestPredictorSeparatesWeekdayWeekend(t *testing.T) {
	series := GenerateSeries(SeriesConfig{Seed: 10, Days: 28})
	s := &series[0]
	// Day 14 is a weekday, day 19 a weekend day.
	wd := s.Predict(14, 0)
	we := s.Predict(19, 0)
	if wd <= 0 || we <= 0 {
		t.Fatal("predictor returned zero with history available")
	}
	if we >= wd {
		t.Fatalf("weekend prediction %g >= weekday %g despite weekend dip", we, wd)
	}
}

func TestPredictNoHistory(t *testing.T) {
	series := GenerateSeries(SeriesConfig{Seed: 11, Days: 3})
	if got := series[0].Predict(0, 0); got != 0 {
		t.Fatalf("Predict with no history = %g, want 0", got)
	}
}

func TestPerturbSizes(t *testing.T) {
	jobs := W1(Config{Seed: 12, Jobs: 30})
	pert := PerturbSizes(jobs, 0.5, 13)
	if len(pert) != len(jobs) {
		t.Fatal("length changed")
	}
	changed := false
	for i := range jobs {
		r := pert[i].InputBytes() / jobs[i].InputBytes()
		if r < 0.49 || r > 1.51 {
			t.Fatalf("perturbation ratio %g outside [0.5, 1.5]", r)
		}
		if r != 1 {
			changed = true
		}
		// Original untouched (deep copy).
		//corralvet:ok floateq exact identity intended: the deep copy must leave the original's bytes untouched
		if jobs[i].Stages[0].Profile.InputBytes != jobs[i].InputBytes() {
			t.Fatal("original mutated")
		}
	}
	if !changed {
		t.Fatal("no job was perturbed")
	}
}

func TestPerturbArrivals(t *testing.T) {
	jobs := W1(Config{Seed: 14, Jobs: 50, ArrivalWindow: 600})
	pert := PerturbArrivals(jobs, 0.5, 240, 15)
	moved := 0
	for i := range jobs {
		//corralvet:ok floateq exact identity intended: an unperturbed arrival is a copy
		if pert[i].Arrival != jobs[i].Arrival {
			moved++
			if math.Abs(pert[i].Arrival-jobs[i].Arrival) > 240 && jobs[i].Arrival > 240 {
				t.Fatalf("arrival moved by %g > 240", math.Abs(pert[i].Arrival-jobs[i].Arrival))
			}
		}
		if pert[i].Arrival < 0 {
			t.Fatal("negative arrival after perturbation")
		}
	}
	if moved == 0 || moved == len(jobs) {
		t.Fatalf("moved = %d of %d, want roughly half", moved, len(jobs))
	}
}

func TestMarkAdHocAndRenumber(t *testing.T) {
	jobs := W1(Config{Seed: 16, Jobs: 5})
	MarkAdHoc(jobs)
	for _, j := range jobs {
		if !j.AdHoc || j.Recurring {
			t.Fatal("MarkAdHoc did not flip flags")
		}
	}
	Renumber(jobs, 100)
	for i, j := range jobs {
		if j.ID != 100+i {
			t.Fatalf("renumbered ID = %d, want %d", j.ID, 100+i)
		}
	}
}

func TestSlotsPerJobMix(t *testing.T) {
	slots := SlotsPerJobMix(17, 5000, 0.75)
	under := 0
	for _, s := range slots {
		if s < 1 || s > 10000 {
			t.Fatalf("slot count %d out of range", s)
		}
		if s <= 240 {
			under++
		}
	}
	frac := float64(under) / float64(len(slots))
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("under-one-rack fraction = %g, want ~0.75", frac)
	}
}

// Property: every workload generator yields valid jobs for any seed.
func TestQuickGeneratorsValid(t *testing.T) {
	f := func(seed int64) bool {
		for _, jobs := range [][]*job.Job{
			W1(Config{Seed: seed, Jobs: 12}),
			W2(Config{Seed: seed, Jobs: 20}),
			W3(Config{Seed: seed, Jobs: 12}),
			TPCH(Config{Seed: seed, Jobs: 4}, 0),
		} {
			for _, j := range jobs {
				if j.Validate() != nil {
					return false
				}
				if j.InputBytes() <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
