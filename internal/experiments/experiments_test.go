package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func run(t *testing.T, f Func) *Report {
	t.Helper()
	r, err := f(Params{Size: SizeS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) == 0 {
		t.Fatal("report has no tables")
	}
	if !strings.Contains(r.String(), "###") {
		t.Fatal("report renders empty")
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) < 20 {
		t.Fatalf("registry has %d experiments, want >= 20", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete registry entry %+v", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := Lookup(e.ID); !ok {
			t.Fatalf("Lookup(%s) failed", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown ID succeeded")
	}
}

func TestFig1Predictability(t *testing.T) {
	r := run(t, Fig1)
	mape := r.Values["prediction_mape_pct"]
	if mape <= 1 || mape > 12 {
		t.Fatalf("MAPE = %g%%, want ~6.5%%", mape)
	}
}

func TestFig2Fractions(t *testing.T) {
	r := run(t, Fig2)
	for i, want := range []float64{0.75, 0.87, 0.95} {
		got := r.Values[keyf("cluster%d_under_one_rack_frac", i+1)]
		if got < want-0.03 || got > want+0.03 {
			t.Fatalf("cluster %d fraction = %g, want ~%g", i+1, got, want)
		}
	}
}

func keyf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

func TestTable1Shape(t *testing.T) {
	r := run(t, Table1)
	if v := r.Values["input_gb_p50"]; v < 5 || v > 10 {
		t.Fatalf("input p50 = %g GB, want ~7.1", v)
	}
	if v := r.Values["shuffle_gb_p95"]; v < 50 || v > 100 {
		t.Fatalf("shuffle p95 = %g GB, want ~71.5", v)
	}
}

func TestLPGapSmall(t *testing.T) {
	r := run(t, LPGap)
	for _, k := range r.Keys() {
		gap := r.Values[k]
		if gap < -1e-6 {
			t.Fatalf("%s = %g%%: heuristic beat the LP lower bound", k, gap)
		}
		// The batch bound is the exact LP optimum; the online bound is the
		// documented weaker relaxation (per-job floor / fluid SRPT), so its
		// gap can be much larger than the paper's 15% vs their LP-Online.
		limit := 120.0
		if strings.Contains(k, "online") {
			limit = 300
		}
		if gap > limit {
			t.Fatalf("%s = %g%%: gap implausibly large", k, gap)
		}
	}
}

func TestFig5Scales(t *testing.T) {
	r := run(t, Fig5)
	if len(r.Values) < 3 {
		t.Fatal("fig5 measured fewer than 3 points")
	}
	for k, v := range r.Values {
		if v < 0 {
			t.Fatalf("%s = %g", k, v)
		}
	}
}

func TestFig6CorralWins(t *testing.T) {
	r := run(t, Fig6)
	// W3 is the stable anchor at the toy size; W1's large-job tail is a
	// coin flip there, so it only gets a "not catastrophic" bound.
	red := r.Values["W3_corral_makespan_reduction_pct"]
	if red <= 0 {
		t.Fatalf("Corral W3 makespan reduction = %g%%, want positive", red)
	}
	if red > 80 {
		t.Fatalf("Corral W3 makespan reduction = %g%%, implausibly large", red)
	}
	if w1 := r.Values["W1_corral_makespan_reduction_pct"]; w1 < -20 {
		t.Fatalf("Corral W1 makespan reduction = %g%%, collapsed", w1)
	}
}

func TestFig7aCrossRackDrops(t *testing.T) {
	r := run(t, Fig7a)
	red := r.Values["W1_corral_crossrack_reduction_pct"]
	if red < 20 {
		t.Fatalf("Corral cross-rack reduction = %g%%, paper range 20-90%%", red)
	}
}

func TestFig7cReduceTimes(t *testing.T) {
	r := run(t, Fig7c)
	if red := r.Values["reduce_time_median_reduction_pct"]; red <= 0 {
		t.Fatalf("median reduce-time reduction = %g%%, want positive", red)
	}
}

func TestFig8OnlineWins(t *testing.T) {
	r := run(t, Fig8)
	if red := r.Values["W1_median_reduction_pct"]; red <= 0 {
		t.Fatalf("online median reduction = %g%%, want positive", red)
	}
}

func TestFig9Bins(t *testing.T) {
	r := run(t, Fig9)
	found := 0
	for _, k := range r.Keys() {
		if strings.Contains(k, "corral") {
			found++
		}
	}
	if found != 3 {
		t.Fatalf("fig9 corral bins = %d, want 3", found)
	}
}

func TestFig10Queries(t *testing.T) {
	r := run(t, Fig10)
	if red := r.Values["mean_reduction_pct"]; red <= -20 {
		t.Fatalf("TPC-H mean reduction = %g%%, want not-large-negative", red)
	}
}

func TestFig11BothGroupsBenefit(t *testing.T) {
	r := run(t, Fig11)
	if red := r.Values["recurring_mean_reduction_pct"]; red <= 0 {
		t.Fatalf("recurring mean reduction = %g%%, want positive", red)
	}
	// Ad-hoc should at least not be badly hurt.
	if red := r.Values["ad-hoc_mean_reduction_pct"]; red < -25 {
		t.Fatalf("ad-hoc mean reduction = %g%%", red)
	}
}

func TestFig12TrendWithLoad(t *testing.T) {
	r := run(t, Fig12)
	lo := r.Values["makespan_reduction_pct_bg50"]
	hi := r.Values["makespan_reduction_pct_bg67"]
	if hi < lo-5 {
		t.Fatalf("benefit shrank with background: %g%% -> %g%%", lo, hi)
	}
}

func TestFig13aRobust(t *testing.T) {
	r := run(t, Fig13a)
	for _, k := range r.Keys() {
		if r.Values[k] <= -10 {
			t.Fatalf("%s = %g%%: size error destroyed the benefit", k, r.Values[k])
		}
	}
}

func TestFig13bRobust(t *testing.T) {
	r := run(t, Fig13b)
	base := r.Values["avgtime_reduction_pct_delayed0"]
	worst := r.Values["avgtime_reduction_pct_delayed50"]
	if base <= 0 {
		t.Fatalf("zero-error reduction = %g%%, want positive", base)
	}
	if worst < -15 {
		t.Fatalf("50%%-delayed reduction = %g%%, collapsed", worst)
	}
}

func TestFig14Ordering(t *testing.T) {
	r := run(t, Fig14)
	corralTCP := r.Values["corral+tcp_median_reduction_pct"]
	corralVarys := r.Values["corral+varys_median_reduction_pct"]
	if corralTCP <= 0 {
		t.Fatalf("corral+tcp median reduction = %g%%, want positive", corralTCP)
	}
	if corralVarys < corralTCP-15 {
		t.Fatalf("corral+varys (%g%%) much worse than corral+tcp (%g%%)", corralVarys, corralTCP)
	}
}

func TestBalanceCoV(t *testing.T) {
	r := run(t, Balance)
	if r.Values["cov_corral"] > r.Values["cov_hdfs"]+0.05 {
		t.Fatalf("Corral CoV %g worse than HDFS %g", r.Values["cov_corral"], r.Values["cov_hdfs"])
	}
}

func TestAblations(t *testing.T) {
	ra := run(t, AblationAlpha)
	if ra.Values["cov_alpha_on"] > ra.Values["cov_alpha_off"]+0.05 {
		t.Fatalf("alpha penalty worsened balance: %g vs %g",
			ra.Values["cov_alpha_on"], ra.Values["cov_alpha_off"])
	}
	rp := run(t, AblationProvision)
	if rp.Values["makespan_full"] > rp.Values["makespan_onerack"]*1.001 {
		t.Fatalf("full provisioning (%g) worse than one-rack baseline (%g)",
			rp.Values["makespan_full"], rp.Values["makespan_onerack"])
	}
	run(t, AblationPriority)
	rd := run(t, AblationDelay)
	if len(rd.Values) < 4 {
		t.Fatal("delay ablation produced too few values")
	}
}

func TestExtRemoteStorage(t *testing.T) {
	r := run(t, ExtRemoteStorage)
	if red := r.Values["crossrack_reduction_pct"]; red <= 0 {
		t.Fatalf("remote-storage cross-rack reduction = %g%%, want positive", red)
	}
}

func TestExtInMemory(t *testing.T) {
	r := run(t, ExtInMemory)
	if red := r.Values["crossrack_reduction_pct"]; red <= 0 {
		t.Fatalf("in-memory cross-rack reduction = %g%%, want positive", red)
	}
}

func TestExtFailures(t *testing.T) {
	r := run(t, ExtFailures)
	if r.Values["makespan_failed"] <= 0 {
		t.Fatal("failed run produced no makespan")
	}
	if r.Values["slowdown_pct"] > 200 {
		t.Fatalf("failure slowdown = %g%%, implausibly large", r.Values["slowdown_pct"])
	}
}

func TestExtSpeculation(t *testing.T) {
	r := run(t, ExtSpeculation)
	clean := r.Values["makespan_clean"]
	strag := r.Values["makespan_stragglers"]
	spec := r.Values["makespan_speculation"]
	if strag <= clean {
		t.Fatalf("stragglers did not hurt: %g vs %g", strag, clean)
	}
	if spec >= strag {
		t.Fatalf("speculation did not help: %g vs %g", spec, strag)
	}
}

func TestExtReplan(t *testing.T) {
	r := run(t, ExtReplan)
	yarn := r.Values["avg_yarn"]
	replan := r.Values["avg_replan"]
	oracle := r.Values["avg_oracle"]
	if replan <= 0 || oracle <= 0 {
		t.Fatal("replan experiment incomplete")
	}
	// Replanning should not be wildly worse than the oracle, and should
	// roughly track Corral's advantage over Yarn-CS.
	if replan > oracle*1.5 {
		t.Fatalf("replanned avg %g much worse than oracle %g", replan, oracle)
	}
	if replan > yarn*1.3 {
		t.Fatalf("replanned avg %g much worse than yarn %g", replan, yarn)
	}
}

func TestExtSharedData(t *testing.T) {
	r := run(t, ExtSharedData)
	smart := r.Values["crossrack_gb_shared"]
	perJob := r.Values["crossrack_gb_perjob"]
	uniform := r.Values["crossrack_gb_uniform"]
	if smart > perJob+1e-9 || smart > uniform+1e-9 {
		t.Fatalf("dataset-aware placement (%g) worse than per-job (%g) or uniform (%g)",
			smart, perJob, uniform)
	}
}
