// Package datadeps implements the §7 "Data-job dependencies" extension:
// in general the relation between datasets and jobs is a bipartite graph —
// one dataset can feed many jobs, and one job can read many datasets. The
// paper sketches the solution: "using the schedule of the offline planner,
// formulate a simple LP with variables representing what fraction of each
// dataset is allocated to each rack and the cost function capturing the
// amount of cross-rack data transferred".
//
// This package solves that placement. The LP is
//
//	max  Σ_{j,d} b_jd · Σ_{r ∈ R_j} x_dr        (locally read bytes)
//	s.t. Σ_r x_dr = 1                     ∀d
//	     Σ_d size_d · x_dr ≤ cap_r        ∀r    (optional capacity)
//	     x ≥ 0
//
// Its structure (per-dataset simplex constraints coupled only by rack
// capacities) makes the classic greedy exact when capacities are slack and
// a strong approximation otherwise: place datasets in decreasing order of
// read weight, each on the rack(s) covering the most consumer bytes, and
// split across racks only when capacity binds.
//
// Determinism obligations: placement is a pure function of the datasets,
// jobs and plan — greedy order is fully specified (weight, then id), with
// no randomness and no map-iteration-order dependence.
package datadeps

import (
	"fmt"
	"sort"
)

// Dataset is one shared input collection.
type Dataset struct {
	ID    int
	Bytes float64 // stored size (primary replica)
}

// Read records that a job consumes part (or all) of a dataset.
type Read struct {
	DatasetID int
	JobID     int
	Bytes     float64
}

// Input describes one placement problem.
type Input struct {
	Racks int
	// RackCapacity bounds the primary-replica bytes a rack may hold;
	// 0 means unconstrained.
	RackCapacity float64
	Datasets     []Dataset
	Reads        []Read
	// JobRacks is each consuming job's planned rack set R_j.
	JobRacks map[int][]int
}

// Validate reports structural problems.
func (in Input) Validate() error {
	if in.Racks <= 0 {
		return fmt.Errorf("datadeps: Racks = %d", in.Racks)
	}
	ids := map[int]bool{}
	for _, d := range in.Datasets {
		if d.Bytes < 0 {
			return fmt.Errorf("datadeps: dataset %d has negative size", d.ID)
		}
		if ids[d.ID] {
			return fmt.Errorf("datadeps: duplicate dataset %d", d.ID)
		}
		ids[d.ID] = true
	}
	for _, rd := range in.Reads {
		if !ids[rd.DatasetID] {
			return fmt.Errorf("datadeps: read of unknown dataset %d", rd.DatasetID)
		}
		if rd.Bytes < 0 {
			return fmt.Errorf("datadeps: negative read size")
		}
		racks, ok := in.JobRacks[rd.JobID]
		if !ok {
			return fmt.Errorf("datadeps: job %d has no rack assignment", rd.JobID)
		}
		for _, r := range racks {
			if r < 0 || r >= in.Racks {
				return fmt.Errorf("datadeps: job %d assigned rack %d out of range", rd.JobID, r)
			}
		}
	}
	return nil
}

// Placement is a fractional dataset→rack assignment.
type Placement struct {
	// Fractions[datasetID][rack] in [0,1], summing to 1 per dataset.
	Fractions map[int][]float64
}

// Place solves the placement problem greedily (see the package comment).
func Place(in Input) (*Placement, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// weight[d][r] = bytes of d read by jobs whose rack set includes r.
	weight := make(map[int][]float64, len(in.Datasets))
	total := make(map[int]float64, len(in.Datasets))
	for _, d := range in.Datasets {
		weight[d.ID] = make([]float64, in.Racks)
	}
	for _, rd := range in.Reads {
		for _, r := range in.JobRacks[rd.JobID] {
			weight[rd.DatasetID][r] += rd.Bytes
		}
		total[rd.DatasetID] += rd.Bytes
	}

	order := append([]Dataset(nil), in.Datasets...)
	sort.SliceStable(order, func(a, b int) bool {
		if total[order[a].ID] != total[order[b].ID] {
			return total[order[a].ID] > total[order[b].ID]
		}
		return order[a].ID < order[b].ID
	})

	capLeft := make([]float64, in.Racks)
	for r := range capLeft {
		if in.RackCapacity > 0 {
			capLeft[r] = in.RackCapacity
		} else {
			capLeft[r] = -1 // unconstrained sentinel
		}
	}

	out := &Placement{Fractions: make(map[int][]float64, len(in.Datasets))}
	for _, d := range order {
		frac := make([]float64, in.Racks)
		remaining := 1.0
		w := weight[d.ID]
		for remaining > 1e-12 {
			// Best rack by covered weight (ties toward lower index), among
			// racks with capacity left.
			best := -1
			for r := 0; r < in.Racks; r++ {
				if capLeft[r] == 0 {
					continue
				}
				if best == -1 || w[r] > w[best] {
					best = r
				}
			}
			if best == -1 {
				// Capacity exhausted everywhere: spill evenly (violating
				// capacity is worse than spreading).
				for r := 0; r < in.Racks; r++ {
					frac[r] += remaining / float64(in.Racks)
				}
				remaining = 0
				break
			}
			take := remaining
			if capLeft[best] > 0 {
				byCap := capLeft[best] / maxf(d.Bytes, 1)
				if byCap < take {
					take = byCap
				}
			}
			if take <= 0 {
				capLeft[best] = 0
				continue
			}
			frac[best] += take
			remaining -= take
			if capLeft[best] > 0 {
				capLeft[best] -= float64(take * d.Bytes)
				if capLeft[best] < 1e-9 {
					capLeft[best] = 0
				}
			}
		}
		out.Fractions[d.ID] = frac
	}
	return out, nil
}

// CrossRackReadBytes returns the bytes jobs must pull across racks under
// the placement: for each read, the fraction of the dataset outside the
// job's rack set.
func CrossRackReadBytes(in Input, p *Placement) float64 {
	cross := 0.0
	for _, rd := range in.Reads {
		frac := p.Fractions[rd.DatasetID]
		local := 0.0
		for _, r := range in.JobRacks[rd.JobID] {
			local += frac[r]
		}
		if local > 1 {
			local = 1
		}
		cross += float64(rd.Bytes * (1 - local))
	}
	return cross
}

// UniformPlacement spreads every dataset evenly across all racks — the
// baseline "HDFS random" behavior for comparison.
func UniformPlacement(in Input) *Placement {
	p := &Placement{Fractions: make(map[int][]float64, len(in.Datasets))}
	for _, d := range in.Datasets {
		frac := make([]float64, in.Racks)
		for r := range frac {
			frac[r] = 1 / float64(in.Racks)
		}
		p.Fractions[d.ID] = frac
	}
	return p
}

// PerJobPlacement models the paper's default assumption ("each job reads
// its own dataset"): every dataset follows its single heaviest consumer's
// rack set, ignoring other consumers.
func PerJobPlacement(in Input) *Placement {
	heaviest := map[int]Read{}
	for _, rd := range in.Reads {
		if cur, ok := heaviest[rd.DatasetID]; !ok || rd.Bytes > cur.Bytes {
			heaviest[rd.DatasetID] = rd
		}
	}
	p := &Placement{Fractions: make(map[int][]float64, len(in.Datasets))}
	for _, d := range in.Datasets {
		frac := make([]float64, in.Racks)
		if rd, ok := heaviest[d.ID]; ok {
			racks := in.JobRacks[rd.JobID]
			for _, r := range racks {
				frac[r] = 1 / float64(len(racks))
			}
		} else {
			for r := range frac {
				frac[r] = 1 / float64(in.Racks)
			}
		}
		p.Fractions[d.ID] = frac
	}
	return p
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
