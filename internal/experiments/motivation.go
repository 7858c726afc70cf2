package experiments

import (
	"fmt"
	"math"

	"corral/internal/metrics"
	"corral/internal/workload"
)

// Fig1 regenerates the §2 motivation telemetry: normalized input sizes of
// six recurring jobs over ten days, plus the averaging predictor's mean
// absolute percentage error (paper: ~6.5%).
func Fig1(p Params) (*Report, error) {
	r := newReport("Fig 1: recurring-job input size over ten days (normalized, log10)")
	series := workload.GenerateSeries(workload.SeriesConfig{Seed: p.Seed + 1, Jobs: 20, Days: 30})

	t := &metrics.Table{
		Title:   "normalized input size per day (first daily run, days 20-29)",
		Columns: []string{"job", "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"},
	}
	for si := 0; si < 6; si++ {
		s := &series[si]
		base := s.Actual(20, 0)
		row := []string{s.Name}
		for d := 20; d < 30; d++ {
			v := s.Actual(d, 0) / base
			row = append(row, metrics.F(float64(math.Log10(v))+1, 3)) // log10 scale, shifted
		}
		t.AddRow(row...)
	}
	r.table(t)

	mape := workload.PredictionError(series, 7)
	t2 := &metrics.Table{Title: "predictor quality", Columns: []string{"metric", "value"}}
	t2.AddRow("mean abs. percentage error", metrics.Pct(100*mape))
	t2.AddRow("paper reports", "6.5%")
	r.table(t2)
	r.set("prediction_mape_pct", 100*mape)
	return r, nil
}

// Fig2 regenerates the slots-per-job CDF across three production clusters:
// 75%, 87% and 95% of jobs fit under one rack (240 slots).
func Fig2(p Params) (*Report, error) {
	r := newReport("Fig 2: CDF of compute slots requested per job")
	fractions := []float64{0.75, 0.87, 0.95}
	t := &metrics.Table{
		Title:   "cumulative fraction of jobs by requested slots",
		Columns: []string{"slots", "cluster-1", "cluster-2", "cluster-3"},
	}
	var clusters [][]int
	for i, f := range fractions {
		clusters = append(clusters, workload.SlotsPerJobMix(p.Seed+int64(i)+10, 20000, f))
	}
	for _, cut := range []int{1, 10, 100, 240, 1000, 10000} {
		row := []string{fmt.Sprintf("%d", cut)}
		for _, c := range clusters {
			under := 0
			for _, s := range c {
				if s <= cut {
					under++
				}
			}
			row = append(row, metrics.F(float64(under)/float64(len(c)), 3))
		}
		t.AddRow(row...)
	}
	r.table(t)
	for i, c := range clusters {
		under := 0
		for _, s := range c {
			if s <= 240 {
				under++
			}
		}
		r.set(fmt.Sprintf("cluster%d_under_one_rack_frac", i+1), float64(under)/float64(len(c)))
	}
	return r, nil
}

// Table1 regenerates the W3 workload characteristics table: task counts
// and data sizes at the 50th and 95th percentiles.
func Table1(p Params) (*Report, error) {
	r := newReport("Table 1: characteristics of workload W3 (Cosmos)")
	// Use an unscaled sample so the table is in the paper's units.
	jobs := workload.W3(workload.Config{Seed: p.Seed + 2, Jobs: 2000})
	var tasks, inputs, shuffles []float64
	for _, j := range jobs {
		tasks = append(tasks, float64(j.TotalTasks()))
		inputs = append(inputs, j.InputBytes()/workload.GB)
		shuffles = append(shuffles, j.ShuffleBytes()/workload.GB)
	}
	t := &metrics.Table{
		Title:   "W3 percentiles (paper: tasks 180/2060, input 7.1/162.3 GB, shuffle 6/71.5 GB)",
		Columns: []string{"metric", "50%-tile", "95%-tile"},
	}
	t.AddRow("number of tasks", metrics.F(metrics.Percentile(tasks, 0.5), 0), metrics.F(metrics.Percentile(tasks, 0.95), 0))
	t.AddRow("input data size (GB)", metrics.F(metrics.Percentile(inputs, 0.5), 1), metrics.F(metrics.Percentile(inputs, 0.95), 1))
	t.AddRow("intermediate data size (GB)", metrics.F(metrics.Percentile(shuffles, 0.5), 1), metrics.F(metrics.Percentile(shuffles, 0.95), 1))
	r.table(t)
	r.set("tasks_p50", metrics.Percentile(tasks, 0.5))
	r.set("tasks_p95", metrics.Percentile(tasks, 0.95))
	r.set("input_gb_p50", metrics.Percentile(inputs, 0.5))
	r.set("input_gb_p95", metrics.Percentile(inputs, 0.95))
	r.set("shuffle_gb_p50", metrics.Percentile(shuffles, 0.5))
	r.set("shuffle_gb_p95", metrics.Percentile(shuffles, 0.95))
	return r, nil
}
