package experiments

import (
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// Fig11 reproduces the mixed recurring + ad-hoc experiment (§6.4): 100
// recurring jobs arriving online plus 50 ad-hoc jobs submitted as a batch.
// Planning the recurring jobs with Corral speeds up both groups (paper:
// recurring 33%/27% mean/median; ad-hoc 37% faster at p90, makespan −28%).
func Fig11(p Params) (*Report, error) {
	r := newReport("Fig 11: mixed recurring + ad hoc jobs")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)

	nRecur := prof.w1Jobs
	nAdhoc := prof.w1Jobs / 2

	recurring, err := genOnlineWorkload("W1", prof, p.Seed+6)
	if err != nil {
		return nil, err
	}
	adhoc := workload.MarkAdHoc(workload.W1(prof.wcfg(p.Seed+7, nAdhoc, 0)))
	workload.Renumber(adhoc, nRecur+1)
	res, err := runAll(topo, append(recurring, adhoc...), planner.MinimizeAvgCompletion, p.Seed,
		runtime.YarnCS, runtime.Corral)
	if err != nil {
		return nil, err
	}
	yarn, corral := res[runtime.YarnCS], res[runtime.Corral]

	groups := []struct {
		name string
		keep func(*runtime.JobResult) bool
	}{
		{"recurring", func(j *runtime.JobResult) bool { return !j.AdHoc }},
		{"ad-hoc", func(j *runtime.JobResult) bool { return j.AdHoc }},
	}
	t := &metrics.Table{
		Title:   "completion time vs Yarn-CS by job group",
		Columns: []string{"group", "metric", "yarn-cs", "corral", "reduction"},
	}
	for _, g := range groups {
		y := completionTimes(yarn, g.keep)
		c := completionTimes(corral, g.keep)
		rows := []struct {
			metric string
			yv, cv float64
		}{
			{"mean", metrics.Mean(y), metrics.Mean(c)},
			{"median", metrics.Percentile(y, 0.5), metrics.Percentile(c, 0.5)},
			{"p90", metrics.Percentile(y, 0.9), metrics.Percentile(c, 0.9)},
		}
		for _, row := range rows {
			red := metrics.Reduction(row.yv, row.cv)
			t.AddRow(g.name, row.metric, metrics.F(row.yv, 1), metrics.F(row.cv, 1), metrics.Pct(red))
			r.set(g.name+"_"+row.metric+"_reduction_pct", red)
		}
	}
	r.table(t)

	// Ad-hoc makespan.
	adhocMakespan := func(res *runtime.Result) float64 {
		m := 0.0
		for i := range res.Jobs {
			if res.Jobs[i].AdHoc && res.Jobs[i].Completion > m {
				m = res.Jobs[i].Completion
			}
		}
		return m
	}
	ym, cm := adhocMakespan(yarn), adhocMakespan(corral)
	t2 := &metrics.Table{Title: "ad-hoc batch makespan", Columns: []string{"scheduler", "seconds"}}
	t2.AddRow("yarn-cs", metrics.F(ym, 1))
	t2.AddRow("corral", metrics.F(cm, 1))
	r.table(t2)
	r.set("adhoc_makespan_reduction_pct", metrics.Reduction(ym, cm))
	return r, nil
}
