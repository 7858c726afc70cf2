package runtime

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"corral/internal/dfs"
	"corral/internal/job"
	"corral/internal/snapshot"
	"corral/internal/topology"
)

// mapBuckets is the oracle for a stage's locality indexes: the
// map-of-slices buckets, pushes, pop and capture as the runtime kept them
// before locIndex, over a private copy of the stage's map tasks.
type mapBuckets struct {
	byMachine, byRack map[int][]*mapTask
	anyPref, anywhere []*mapTask
	pending           int
	maps              []*mapTask
}

// startMaps materializes the stage's map tasks and buckets as startStage
// did: every live replica (or the upstream machine, live or not) is
// pushed to its machine and rack bucket.
func startMaps(rt *runtime, st *stageExec) *mapBuckets {
	o := &mapBuckets{byMachine: map[int][]*mapTask{}, byRack: map[int][]*mapTask{}}
	p := st.profile
	for i := 0; i < p.MapTasks; i++ {
		t := &mapTask{index: i, bytes: p.InputBytes / float64(p.MapTasks), srcMachine: -1, doneOn: -1}
		o.maps = append(o.maps, t)
		switch {
		case st.inputFile != nil && len(st.inputFile.Blocks) > 0:
			bi := i * len(st.inputFile.Blocks) / p.MapTasks
			t.blk = &st.inputFile.Blocks[bi]
			for _, m := range t.blk.Replicas {
				if rt.dead[m] {
					continue
				}
				o.byMachine[m] = append(o.byMachine[m], t)
				o.byRack[rt.cluster.RackOf(m)] = append(o.byRack[rt.cluster.RackOf(m)], t)
			}
			o.anyPref = append(o.anyPref, t)
		case len(st.upstreamMachines) > 0:
			m := st.upstreamMachines[i%len(st.upstreamMachines)]
			t.srcMachine = m
			o.byMachine[m] = append(o.byMachine[m], t)
			o.byRack[rt.cluster.RackOf(m)] = append(o.byRack[rt.cluster.RackOf(m)], t)
			o.anyPref = append(o.anyPref, t)
		default:
			o.anywhere = append(o.anywhere, t)
		}
		o.pending++
	}
	return o
}

// pop is the map-based popTask: LIFO with lazy discard, deleting a bucket
// the discard loop empties.
func (o *mapBuckets) pop(idx map[int][]*mapTask, key int) *mapTask {
	lst := idx[key]
	for len(lst) > 0 {
		t := lst[len(lst)-1]
		lst = lst[:len(lst)-1]
		if !t.assigned {
			idx[key] = lst
			t.assigned = true
			o.pending--
			return t
		}
	}
	if len(lst) == 0 {
		delete(idx, key)
	} else {
		idx[key] = lst
	}
	return nil
}

// popSlice is popSlice over the oracle's lists.
func (o *mapBuckets) popSlice(lst *[]*mapTask) *mapTask {
	l := *lst
	for len(l) > 0 {
		t := l[len(l)-1]
		l = l[:len(l)-1]
		if !t.assigned {
			*lst = l
			t.assigned = true
			o.pending--
			return t
		}
	}
	*lst = l
	return nil
}

// requeue is the map-based requeueMap.
func (o *mapBuckets) requeue(rt *runtime, t *mapTask) {
	t.assigned = false
	o.pending++
	switch {
	case t.blk != nil:
		pushed := false
		for _, m := range t.blk.Replicas {
			if rt.dead[m] {
				continue
			}
			o.byMachine[m] = append(o.byMachine[m], t)
			o.byRack[rt.cluster.RackOf(m)] = append(o.byRack[rt.cluster.RackOf(m)], t)
			pushed = true
		}
		if pushed {
			o.anyPref = append(o.anyPref, t)
		} else {
			o.anywhere = append(o.anywhere, t)
		}
	case t.srcMachine >= 0 && !rt.dead[t.srcMachine]:
		o.byMachine[t.srcMachine] = append(o.byMachine[t.srcMachine], t)
		o.byRack[rt.cluster.RackOf(t.srcMachine)] = append(o.byRack[rt.cluster.RackOf(t.srcMachine)], t)
		o.anyPref = append(o.anyPref, t)
	default:
		o.anywhere = append(o.anywhere, t)
	}
}

// recover is the queue half of the map-based recoverStage: fresh buckets,
// then every task not done on a live machine requeued in index order.
func (o *mapBuckets) recover(rt *runtime) {
	o.byMachine, o.byRack = map[int][]*mapTask{}, map[int][]*mapTask{}
	o.anyPref, o.anywhere = nil, nil
	o.pending = 0
	for _, t := range o.maps {
		if t.doneOn >= 0 && !rt.dead[t.doneOn] {
			continue
		}
		t.doneOn = -1
		t.attempts = 0
		o.requeue(rt, t)
	}
}

// mapQueues is the map-based captureQueues.
func mapQueues(q map[int][]*mapTask) []snapshot.TaskQueue {
	keys := make([]int, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]snapshot.TaskQueue, 0, len(keys))
	for _, k := range keys {
		tq := snapshot.TaskQueue{Key: k}
		for _, t := range q[k] {
			tq.Tasks = append(tq.Tasks, t.index)
		}
		out = append(out, tq)
	}
	return out
}

// bucketLen returns the number of entries in key's bucket, stale ones
// included; 0 for an absent key.
func bucketLen(ix *locIndex, key int) int {
	i, ok := slices.BinarySearch(ix.keys, int32(key))
	if !ok || ix.spans[i].n == locDeleted {
		return 0
	}
	return int(ix.spans[i].n)
}

func indexesOf(ts []*mapTask) []int {
	out := []int{}
	for _, t := range ts {
		out = append(out, t.index)
	}
	return out
}

// localityStats counts what a differential run exercised.
type localityStats struct {
	hits, misses, deletes  int // pops that returned a task, returned nil, deleted a bucket
	requeueBlk, requeueSrc int // requeues of a block's task and of an upstream machine's
	moves                  int // requeues that moved a bucket to the end of the backing array
	recovers               int
}

// checkLocalityMatchesMaps drives one stage through startStage, pops by
// machine, by rack and from the preference lists, requeues, completions,
// machine deaths and recoverStage, with the oracle in lockstep: every pop must return the
// same task, and pendingMapCount, the preference lists and both indexes'
// captured queues must match after every step.
func checkLocalityMatchesMaps(t testing.TB, data []byte) localityStats {
	in := &byteStream{b: data}
	racks, perRack := 1+int(in.next())%4, 1+int(in.next())%5
	cfg := topology.Config{Racks: racks, MachinesPerRack: perRack, SlotsPerMachine: 2,
		NICBandwidth: 10 * gbps, Oversubscription: 5}
	rt, err := newRuntime(Options{Cluster: cfg, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Machines()
	for m := 0; m < n; m++ {
		rt.dead[m] = in.next()%5 == 0
	}
	st := &stageExec{
		je:            &jobExec{rt: rt, job: &job.Job{ID: 1}},
		mapsOnMachine: map[int]int{},
		mapsOnRack:    make([]int32, racks),
	}
	st.profile.MapTasks = 1 + int(in.next())%32
	st.profile.InputBytes = 1e6
	switch in.next() % 4 {
	case 0, 1: // source stage: blocks with 1-3 distinct replicas
		f := &dfs.File{}
		for b := 0; b < 1+int(in.next())%12; b++ {
			var reps []int
			for r := 0; r < 1+int(in.next())%3; r++ {
				if m := int(in.next()) % n; !slices.Contains(reps, m) {
					reps = append(reps, m)
				}
			}
			f.Blocks = append(f.Blocks, dfs.Block{Size: 1, Replicas: reps})
		}
		st.inputFile = f
	case 2: // derived stage
		for k := 0; k < 1+int(in.next())%6; k++ {
			st.upstreamMachines = append(st.upstreamMachines, int(in.next())%n)
		}
	}
	o := startMaps(rt, st)
	rt.startStage(st)

	var stats localityStats
	check := func(step int, what string) {
		t.Helper()
		if st.pendingMapCount != o.pending {
			t.Fatalf("step %d (%s): pendingMapCount %d, oracle %d", step, what, st.pendingMapCount, o.pending)
		}
		if got, want := st.byMachine.captureQueues(), mapQueues(o.byMachine); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): byMachine\n got %v\nwant %v", step, what, got, want)
		}
		if got, want := st.byRack.captureQueues(), mapQueues(o.byRack); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): byRack\n got %v\nwant %v", step, what, got, want)
		}
		if !reflect.DeepEqual(indexesOf(st.anyPref), indexesOf(o.anyPref)) ||
			!reflect.DeepEqual(indexesOf(st.anywhere), indexesOf(o.anywhere)) {
			t.Fatalf("step %d (%s): anyPref/anywhere %v/%v, oracle %v/%v", step, what,
				indexesOf(st.anyPref), indexesOf(st.anywhere), indexesOf(o.anyPref), indexesOf(o.anywhere))
		}
	}
	check(0, "start")
	pop := func(step int, ix *locIndex, idx map[int][]*mapTask, key int, what string) {
		t.Helper()
		_, had := idx[key]
		got, want := popTask(ix, key, st), o.pop(idx, key)
		if (got == nil) != (want == nil) || got != nil && got.index != want.index {
			t.Fatalf("step %d: %s %d popped %v, oracle %v", step, what, key, got, want)
		}
		switch _, has := idx[key]; {
		case got != nil:
			stats.hits++
		case had && !has:
			stats.deletes++
		default:
			stats.misses++
		}
	}
	for step := 1; !in.done(); step++ {
		op, arg := in.next(), int(in.next())
		switch op % 10 {
		case 0, 1:
			pop(step, &st.byMachine, o.byMachine, arg%n, "machine")
		case 2, 3:
			pop(step, &st.byRack, o.byRack, arg%racks, "rack")
		case 4, 5: // an assigned attempt fails and is requeued
			if len(st.maps) == 0 || !st.maps[arg%len(st.maps)].assigned || st.maps[arg%len(st.maps)].doneOn >= 0 {
				continue
			}
			i := arg % len(st.maps)
			switch {
			case st.maps[i].blk != nil:
				stats.requeueBlk++
			case st.maps[i].srcMachine >= 0:
				stats.requeueSrc++
			}
			mStarts, rStarts := bucketStarts(&st.byMachine), bucketStarts(&st.byRack)
			rt.requeueMap(st, st.maps[i])
			o.requeue(rt, o.maps[i])
			stats.moves += movedBuckets(&st.byMachine, mStarts) + movedBuckets(&st.byRack, rStarts)
		case 6: // an assigned attempt completes, or a machine dies or recovers
			if len(st.maps) > 0 && op&8 != 0 {
				if i := arg % len(st.maps); st.maps[i].assigned && st.maps[i].doneOn < 0 {
					st.maps[i].doneOn, o.maps[i].doneOn = arg%n, arg%n
				}
				continue
			}
			rt.dead[arg%n] = !rt.dead[arg%n]
		case 7:
			rt.recoverStage(st)
			o.recover(rt)
			stats.recovers++
		case 8, 9: // a level-2 launch: the task's bucket entries go stale
			got, want := popSlice(&st.anyPref, st), o.popSlice(&o.anyPref)
			if op%10 == 9 {
				got, want = popSlice(&st.anywhere, st), o.popSlice(&o.anywhere)
			}
			if (got == nil) != (want == nil) || got != nil && got.index != want.index {
				t.Fatalf("step %d: list pop %v, oracle %v", step, got, want)
			}
		}
		check(step, "op")
	}
	return stats
}

// movedBuckets counts the buckets of ix whose range start differs from
// before (a key -> range start map taken earlier).
func movedBuckets(ix *locIndex, before map[int32]int32) int {
	n := 0
	for i, k := range ix.keys {
		if off, ok := before[k]; ok && off != ix.spans[i].off {
			n++
		}
	}
	return n
}

func bucketStarts(ix *locIndex) map[int32]int32 {
	out := map[int32]int32{}
	for i, k := range ix.keys {
		out[k] = ix.spans[i].off
	}
	return out
}

func randomLocalityData(r *rand.Rand) []byte {
	data := make([]byte, 40+r.Intn(400))
	r.Read(data)
	return data
}

func TestLocalityIndexMatchesMaps(t *testing.T) {
	var total localityStats
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		s := checkLocalityMatchesMaps(t, randomLocalityData(r))
		total.hits += s.hits
		total.misses += s.misses
		total.deletes += s.deletes
		total.requeueBlk += s.requeueBlk
		total.requeueSrc += s.requeueSrc
		total.moves += s.moves
		total.recovers += s.recovers
	}
	t.Logf("%+v", total)
	// Anti-vacuity: every path of the index was driven many times.
	for name, n := range map[string]int{
		"pop hits": total.hits, "pop misses": total.misses, "bucket deletes": total.deletes,
		"block requeues": total.requeueBlk, "upstream requeues": total.requeueSrc,
		"bucket moves": total.moves, "recoveries": total.recovers,
	} {
		if n < 20 {
			t.Errorf("%s: %d over the seeds, want at least 20", name, n)
		}
	}
}

func FuzzLocalityIndexMatchesMaps(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		f.Add(randomLocalityData(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLocalityMatchesMaps(t, data)
	})
}

// TestLocalityPopZeroAlloc: a pop that returns a task, one that discards
// a stale entry, and one on an absent key allocate nothing.
func TestLocalityPopZeroAlloc(t *testing.T) {
	var b locBuilder
	st := &stageExec{}
	for i := 0; i < 64; i++ {
		st.maps = append(st.maps, &mapTask{index: i})
		b.add(i%16, i%16/4, i)
	}
	b.build(st, 16)
	st.maps[63].assigned = true // a stale entry on top of machine 15's bucket
	i, _ := slices.BinarySearch(st.byMachine.keys, 15)
	allocs := testing.AllocsPerRun(100, func() {
		tk := popTask(&st.byMachine, 15, st)
		if tk == nil || tk.index != 47 {
			t.Fatalf("popped %v, want task 47", tk)
		}
		if popTask(&st.byRack, 9, st) != nil {
			t.Fatal("absent rack popped a task")
		}
		tk.assigned = false // undo: the entries stay in the backing array
		st.pendingMapCount++
		st.byMachine.spans[i].n += 2
	})
	if allocs != 0 {
		t.Fatalf("pop allocates %v objects, want 0", allocs)
	}
}
