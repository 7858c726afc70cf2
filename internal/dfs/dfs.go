// Package dfs models the distributed file system (HDFS in the paper) that
// stores job input and output data as replicated blocks.
//
// The paper's fault-tolerance policy (§2): data is divided into chunks,
// each replicated three times — two replicas on one rack, the third on a
// different rack, every chunk placed independently.
//
// Corral's modification (§3.1, §5): for planned jobs, one replica of each
// chunk is placed on a randomly chosen rack from the job's assigned rack
// set R_j; the remaining replicas go to another rack chosen from the rest
// of the cluster. §4.5 additionally supplements the plan by "greedily
// placing the last two data replicas on the least loaded rack".
//
// Determinism obligations: block placement is a pure function of
// (inputs, seed) — all "random" choices draw from the caller-injected
// seeded *rand.Rand, and ties (e.g. least-loaded rack) break by index.
package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"corral/internal/topology"
	"corral/internal/trace"
)

// DefaultBlockSize is the chunk size used when a Config leaves it zero.
const DefaultBlockSize = 256 * 1 << 20 // 256 MB

// Block is one replicated chunk of a file.
type Block struct {
	Size     float64
	Replicas []int // machine indices, first is the "primary" replica
}

// File is a named collection of blocks.
type File struct {
	Name   string
	Size   float64
	Blocks []Block
}

// Placement decides where one block's replicas live.
type Placement interface {
	// Place returns the replica machines for one block. It may consult the
	// store's load accounting through the provided view.
	Place(view *View, rng *rand.Rand) []int
	Name() string
}

// View gives placement policies read access to cluster shape and current
// load.
type View struct {
	Cluster      *topology.Cluster
	machineBytes []float64
	rackBytes    []float64
	alive        []bool
}

// MachineBytes returns bytes currently stored on machine m.
func (v *View) MachineBytes(m int) float64 { return v.machineBytes[m] }

// RackBytes returns bytes currently stored on rack r.
func (v *View) RackBytes(r int) float64 { return v.rackBytes[r] }

// Alive reports whether machine m is up (see Store.MachineDown/MachineUp).
func (v *View) Alive(m int) bool { return v.alive[m] }

// LeastLoadedMachineInRack returns the live machine in rack r with the
// fewest stored bytes, excluding the machines listed in exclude (pass nil
// for none; callers hold a few entries, so a linear scan beats a set). If
// every live machine is excluded — or the whole rack is dead — it falls
// back to load order over dead machines so placement at upload time never
// dangles; repair planning re-checks liveness itself.
func (v *View) LeastLoadedMachineInRack(r int, exclude []int) int {
	lo, hi := v.Cluster.MachinesInRack(r)
	best, bestBytes := -1, math.Inf(1)
	for m := lo; m < hi; m++ {
		if !v.alive[m] || slices.Contains(exclude, m) {
			continue
		}
		if v.machineBytes[m] < bestBytes {
			best, bestBytes = m, v.machineBytes[m]
		}
	}
	if best >= 0 {
		return best
	}
	for m := lo; m < hi; m++ {
		if slices.Contains(exclude, m) {
			continue
		}
		if v.machineBytes[m] < bestBytes {
			best, bestBytes = m, v.machineBytes[m]
		}
	}
	return best
}

// LeastLoadedRack returns the rack other than skip with the fewest stored
// bytes, the lowest index on ties (pass -1 to skip none).
func (v *View) LeastLoadedRack(skip int) int {
	best, bestBytes := -1, math.Inf(1)
	for r := 0; r < v.Cluster.Config.Racks; r++ {
		if r == skip {
			continue
		}
		if v.rackBytes[r] < bestBytes {
			best, bestBytes = r, v.rackBytes[r]
		}
	}
	return best
}

// Store is the file system: a set of files plus per-machine load
// accounting.
type Store struct {
	cluster   *topology.Cluster
	blockSize float64
	rng       *rand.Rand
	files     map[string]*File
	view      View

	// blocksOn indexes, per machine, the blocks that (may) hold a replica
	// there. Entries are appended at create/repair time and lazily dropped
	// by BlocksOn once a repair moves the replica away.
	blocksOn [][]*Block

	// corrupt marks replica slots whose on-disk data is bad (fault
	// injection). A corrupt replica still occupies space and its machine
	// may be live, but reads checksum-detect it and fail over; repair
	// re-creates the slot from a clean holder and clears the mark.
	corrupt map[replicaSlot]bool

	// tr receives file-creation and corruption events; now supplies the
	// simulation clock (the store has no simulator reference of its own).
	// Both are nil until AttachTracer.
	tr  *trace.Tracer
	now func() float64
}

// replicaSlot names one replica of one block (Replicas[Slot]).
type replicaSlot struct {
	blk  *Block
	slot int
}

// New creates an empty store. blockSize <= 0 selects DefaultBlockSize.
// The rng drives replica placement; callers seed it for determinism.
func New(cluster *topology.Cluster, blockSize float64, rng *rand.Rand) *Store {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	s := &Store{
		cluster:   cluster,
		blockSize: blockSize,
		rng:       rng,
		files:     make(map[string]*File),
		corrupt:   make(map[replicaSlot]bool),
	}
	m := cluster.Config.Machines()
	s.view = View{
		Cluster:      cluster,
		machineBytes: make([]float64, m),
		rackBytes:    make([]float64, cluster.Config.Racks),
		alive:        make([]bool, m),
	}
	for i := range s.view.alive {
		s.view.alive[i] = true
	}
	s.blocksOn = make([][]*Block, m)
	return s
}

// MachineDown marks machine m dead: placement and repair target selection
// skip it, and its replicas count as lost until MachineUp.
func (s *Store) MachineDown(m int) { s.view.alive[m] = false }

// MachineUp marks machine m live again. Replicas still recorded on m (not
// yet repaired away) become readable again — the model treats a recovered
// machine's disk as intact.
func (s *Store) MachineUp(m int) { s.view.alive[m] = true }

// Alive reports whether machine m is up.
func (s *Store) Alive(m int) bool { return s.view.alive[m] }

// AttachTracer points the store at a run's tracer; now supplies simulation
// time for its emissions. A nil tracer detaches.
func (s *Store) AttachTracer(tr *trace.Tracer, now func() float64) {
	s.tr = tr
	s.now = now
}

func (s *Store) traceNow() float64 {
	if s.now == nil {
		return 0
	}
	return s.now()
}

// CorruptReplica marks one of block b's replicas on machine m as corrupt
// (silent data corruption; detected by checksum on read). It reports
// whether a clean replica on m existed to corrupt.
func (s *Store) CorruptReplica(b *Block, m int) bool {
	for slot, r := range b.Replicas {
		if r == m && !s.corrupt[replicaSlot{b, slot}] {
			s.corrupt[replicaSlot{b, slot}] = true
			s.tr.DFSCorrupt(s.traceNow(), m, b.Size)
			return true
		}
	}
	return false
}

// ReplicaCorrupt reports whether block b's replica on machine m is
// corrupt. Readers use it to checksum-verify a candidate source and fail
// over to the next-closest clean replica.
func (s *Store) ReplicaCorrupt(b *Block, m int) bool {
	for slot, r := range b.Replicas {
		if r == m && s.corrupt[replicaSlot{b, slot}] {
			return true
		}
	}
	return false
}

// CorruptReplicas returns the number of currently corrupt replica slots.
func (s *Store) CorruptReplicas() int { return len(s.corrupt) }

// BlockSize returns the store's chunk size in bytes.
func (s *Store) BlockSize() float64 { return s.blockSize }

// View exposes load accounting (read-only by convention).
func (s *Store) View() *View { return &s.view }

// Create writes a file of the given size, placing each block independently
// with the policy. It returns an error if the name already exists.
func (s *Store) Create(name string, size float64, policy Placement) (*File, error) {
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if size < 0 {
		return nil, fmt.Errorf("dfs: negative file size %g", size)
	}
	f := &File{Name: name, Size: size}
	nBlocks := int(math.Ceil(size / s.blockSize))
	if size > 0 && nBlocks == 0 {
		nBlocks = 1
	}
	if nBlocks > 0 {
		f.Blocks = make([]Block, 0, nBlocks)
	}
	rest := size
	for i := 0; i < nBlocks; i++ {
		b := Block{Size: math.Min(s.blockSize, rest)}
		rest -= b.Size
		b.Replicas = policy.Place(&s.view, s.rng)
		if len(b.Replicas) == 0 {
			return nil, fmt.Errorf("dfs: policy %s returned no replicas", policy.Name())
		}
		for _, m := range b.Replicas {
			s.view.machineBytes[m] += b.Size
			s.view.rackBytes[s.cluster.RackOf(m)] += b.Size
		}
		f.Blocks = append(f.Blocks, b)
	}
	// Index replicas only after the append loop: &f.Blocks[i] is stable
	// from here on (callers and the repair daemon hold these pointers).
	for i := range f.Blocks {
		for _, m := range f.Blocks[i].Replicas {
			s.blocksOn[m] = append(s.blocksOn[m], &f.Blocks[i])
		}
	}
	s.files[name] = f
	s.tr.DFSCreate(s.traceNow(), name, size)
	return f, nil
}

// Open returns the named file; ok is false when no such file exists.
// Callers must check ok — an absent file is a caller bug (bad name or a
// read before upload) and has to fail loudly at the call site instead of
// surfacing later as a nil dereference mid-simulation.
func (s *Store) Open(name string) (f *File, ok bool) {
	f, ok = s.files[name]
	return f, ok
}

// RackCoV returns the coefficient of variation of bytes stored per rack —
// the paper's data-balance metric (§6.2: Corral ≤ 0.004 vs HDFS ≤ 0.014).
func (s *Store) RackCoV() float64 {
	n := float64(len(s.view.rackBytes))
	if n == 0 {
		return 0
	}
	mean := 0.0
	for _, b := range s.view.rackBytes {
		mean += b
	}
	mean /= n
	if mean == 0 {
		return 0
	}
	variance := 0.0
	for _, b := range s.view.rackBytes {
		d := b - mean
		variance += float64(d * d)
	}
	variance /= n
	return math.Sqrt(variance) / mean
}

// TotalBytes returns the total stored bytes across all replicas.
func (s *Store) TotalBytes() float64 {
	t := 0.0
	for _, b := range s.view.machineBytes {
		t += b
	}
	return t
}

// --- re-replication ---------------------------------------------------------

// Repair is one planned re-replication copy: read the block from Src and
// re-create the replica in slot Slot (currently recorded on a dead machine)
// on Dst. The caller transfers Block.Size bytes over the network and then
// calls CommitRepair.
type Repair struct {
	Block *Block
	Slot  int // index into Block.Replicas being replaced
	Src   int // live machine to copy from
	Dst   int // live machine to copy to
}

// BlocksOn returns the distinct blocks holding a replica on machine m, in
// creation/repair order. Stale index entries (replicas since repaired away)
// are dropped as a side effect.
func (s *Store) BlocksOn(m int) []*Block {
	kept := s.blocksOn[m][:0]
	var out []*Block
	seen := make(map[*Block]bool)
	for _, b := range s.blocksOn[m] {
		holds := false
		for _, r := range b.Replicas {
			if r == m {
				holds = true
				break
			}
		}
		if !holds {
			continue
		}
		kept = append(kept, b)
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	s.blocksOn[m] = kept
	return out
}

// PlanRepairs plans re-replication for b's replicas that are lost (their
// machine is dead) or corrupt (checksum-detected bad data on a live
// machine). busy, if non-nil, reports slots with an in-flight repair and
// the destination it targets, so double-repair is avoided and in-flight
// destinations count toward the rack spread. Targets restore the 2+1
// arrangement: while the surviving replicas sit on a single rack, the copy
// goes to the least-loaded other rack; otherwise it goes to the surviving
// rack holding the fewest replicas (ties toward the lower rack index).
// Copies always read from a live clean replica; if none exists, repair is
// skipped — the block is unreadable until a holder recovers.
func (s *Store) PlanRepairs(b *Block, busy func(slot int) (dst int, ok bool)) []Repair {
	var holders []int // live clean holders plus in-flight repair destinations
	var avoid []int   // machines unusable as targets: all replicas + in-flight
	var srcs []int    // live clean holders only (valid copy sources)
	for slot, m := range b.Replicas {
		avoid = append(avoid, m)
		if s.view.alive[m] && !s.corrupt[replicaSlot{b, slot}] {
			holders = append(holders, m)
			srcs = append(srcs, m)
		} else if busy != nil {
			if dst, ok := busy(slot); ok {
				holders = append(holders, dst)
				avoid = append(avoid, dst)
			}
		}
	}
	if len(srcs) == 0 {
		return nil
	}
	src := srcs[0]
	var out []Repair
	for slot, m := range b.Replicas {
		if s.view.alive[m] && !s.corrupt[replicaSlot{b, slot}] {
			continue
		}
		if busy != nil {
			if _, ok := busy(slot); ok {
				continue
			}
		}
		dst := s.repairTarget(holders, avoid)
		if dst < 0 {
			continue
		}
		out = append(out, Repair{Block: b, Slot: slot, Src: src, Dst: dst})
		holders = append(holders, dst)
		avoid = append(avoid, dst)
	}
	return out
}

// repairTarget picks the machine for one re-created replica. holders
// (live clean replicas and in-flight destinations) drive the rack-spread
// choice; avoid additionally excludes machines already carrying any
// replica of the block — including corrupt ones, so the re-created copy
// never lands next to the bad data it replaces.
func (s *Store) repairTarget(holders, avoid []int) int {
	racks := s.cluster.Config.Racks
	cnt := make([]int, racks)
	for _, m := range holders {
		cnt[s.cluster.RackOf(m)]++
	}
	holderRacks, firstRack := 0, -1
	for r := 0; r < racks; r++ {
		if cnt[r] > 0 {
			holderRacks++
			if firstRack < 0 {
				firstRack = r
			}
		}
	}
	target := -1
	if holderRacks == 1 && racks > 1 {
		// All holders on one rack: re-establish the cross-rack copy on the
		// least-loaded live rack elsewhere.
		target = s.leastLoadedLiveRack(firstRack, avoid)
	}
	if target < 0 {
		// Spread already spans racks (or no other rack is usable): add to
		// the holder rack with the fewest replicas, lower index on ties.
		for r := 0; r < racks; r++ {
			if cnt[r] == 0 || !s.rackUsable(r, avoid) {
				continue
			}
			if target < 0 || cnt[r] < cnt[target] {
				target = r
			}
		}
	}
	if target < 0 {
		// Holder racks are full of holders/dead machines: any usable rack.
		target = s.leastLoadedLiveRack(-1, avoid)
	}
	if target < 0 {
		return -1
	}
	m := s.view.LeastLoadedMachineInRack(target, avoid)
	if m < 0 || !s.view.alive[m] {
		return -1
	}
	return m
}

// rackUsable reports whether rack r has a live machine outside exclude.
func (s *Store) rackUsable(r int, exclude []int) bool {
	lo, hi := s.cluster.MachinesInRack(r)
	for m := lo; m < hi; m++ {
		if s.view.alive[m] && !slices.Contains(exclude, m) {
			return true
		}
	}
	return false
}

// leastLoadedLiveRack returns the rack (≠ skip) with the fewest stored
// bytes among racks holding a live non-excluded machine, or -1.
func (s *Store) leastLoadedLiveRack(skip int, exclude []int) int {
	best, bestBytes := -1, math.Inf(1)
	for r := 0; r < s.cluster.Config.Racks; r++ {
		if r == skip || !s.rackUsable(r, exclude) {
			continue
		}
		if s.view.rackBytes[r] < bestBytes {
			best, bestBytes = r, s.view.rackBytes[r]
		}
	}
	return best
}

// CommitRepair installs a finished repair: the slot's replica moves from
// the lost or corrupt holder to Dst, with load accounting following the
// bytes. The slot's corruption mark, if any, is cleared — the new copy
// came from a clean source.
func (s *Store) CommitRepair(r Repair) {
	old := r.Block.Replicas[r.Slot]
	sz := r.Block.Size
	s.view.machineBytes[old] -= sz
	s.view.rackBytes[s.cluster.RackOf(old)] -= sz
	r.Block.Replicas[r.Slot] = r.Dst
	s.view.machineBytes[r.Dst] += sz
	s.view.rackBytes[s.cluster.RackOf(r.Dst)] += sz
	s.blocksOn[r.Dst] = append(s.blocksOn[r.Dst], r.Block)
	delete(s.corrupt, replicaSlot{r.Block, r.Slot})
}

// AuditAccounting recomputes the per-machine and per-rack byte accounting
// from the file set and compares it with the incrementally maintained
// view — the byte-conservation invariant: creates and repairs move
// accounting around but never create or destroy it. Returns nil when they
// agree within epsilon, an error naming the first divergence otherwise.
func (s *Store) AuditAccounting() error {
	machines := make([]float64, len(s.view.machineBytes))
	// Collect-and-sort: files is a map; audit order must be deterministic.
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := s.files[name]
		for i := range f.Blocks {
			b := &f.Blocks[i]
			if len(b.Replicas) == 0 {
				return fmt.Errorf("dfs audit: file %q block %d has no replicas", name, i)
			}
			for _, m := range b.Replicas {
				if m < 0 || m >= len(machines) {
					return fmt.Errorf("dfs audit: file %q block %d replica on machine %d out of range", name, i, m)
				}
				machines[m] += b.Size
			}
		}
	}
	const eps = 1e-3 // bytes; block sizes are large, float error is tiny
	racks := make([]float64, len(s.view.rackBytes))
	for m, got := range machines {
		if diff := got - s.view.machineBytes[m]; diff > eps || diff < -eps {
			return fmt.Errorf("dfs audit: machine %d accounts %.1f bytes, files hold %.1f", m, s.view.machineBytes[m], got)
		}
		racks[s.cluster.RackOf(m)] += got
	}
	for r, got := range racks {
		if diff := got - s.view.rackBytes[r]; diff > eps || diff < -eps {
			return fmt.Errorf("dfs audit: rack %d accounts %.1f bytes, files hold %.1f", r, s.view.rackBytes[r], got)
		}
	}
	return nil
}
