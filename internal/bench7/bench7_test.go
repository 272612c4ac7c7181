package bench7

import (
	"sync"
	"sync/atomic"
	"testing"

	"swisstm/internal/cm"
	"swisstm/internal/rstm"
	"swisstm/internal/stm"
	"swisstm/internal/stm/stmtest"
	"swisstm/internal/swisstm"
	"swisstm/internal/tinystm"
	"swisstm/internal/tl2"
	"swisstm/internal/util"
)

// testConfig keeps the structure small so tests stay fast.
func testConfig(roPct int) Config {
	return Config{Levels: 3, Fanout: 3, CompPool: 16, AtomicPerComp: 8,
		ConnPerPart: 3, DocWords: 4, ReadOnlyPct: roPct}
}

func engines() map[string]func() stm.STM {
	return map[string]func() stm.STM{
		"swisstm": func() stm.STM { return swisstm.New(swisstm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tl2":     func() stm.STM { return tl2.New(tl2.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"tinystm": func() stm.STM { return tinystm.New(tinystm.Config{ArenaWords: 1 << 20, TableBits: 14}) },
		"rstm":    func() stm.STM { return rstm.New(rstm.Config{Manager: cm.NewSerializer()}) },
	}
}

// TestZeroAllocOps extends the allocation-regression gate of
// DESIGN.md §7.2 to the bench7 operation loop itself: with the
// pre-bound per-thread op tables, a warmed 100%-read-only op stream —
// index lookups, graph walks, date queries, long traversals — must
// allocate nothing on the word-based engines, and nothing on RSTM
// either (invisible read-only transactions reuse their attempt
// descriptor). The op dispatch used to build a fresh closure per call,
// the last remaining allocation per operation in this package.
func TestZeroAllocOps(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			b := Setup(factory(), testConfig(100))
			o := b.NewOps(b.E.NewThread(1), util.NewRand(11))
			stmtest.ZeroAllocLoop(t, name+"/bench7-readonly", 300, o.Op)
		})
	}
}

func TestSetupInvariants(t *testing.T) {
	for name, factory := range engines() {
		t.Run(name, func(t *testing.T) {
			b := Setup(factory(), testConfig(90))
			if len(b.Bases) != 9 { // fanout^(levels-1) = 3^2
				t.Fatalf("base assemblies = %d, want 9", len(b.Bases))
			}
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEachOperation(t *testing.T) {
	b := Setup(engines()["swisstm"](), testConfig(90))
	o := b.NewOps(b.E.NewThread(1), util.NewRand(5))
	ops := map[string]func(){
		"shortRead":      func() { o.ShortRead() },
		"shortUpdate":    o.ShortUpdate,
		"readComponent":  func() { o.ReadComponent() },
		"updateComp":     o.UpdateComponent,
		"queryDates":     func() { o.QueryDates() },
		"longTraversal":  func() { o.LongTraversal() },
		"longTravUpdate": o.LongTraversalUpdate,
		"structureMod":   o.StructureMod,
	}
	for name, op := range ops {
		for i := 0; i < 10; i++ {
			op()
		}
		if err := b.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestStructureModReplacesComposite(t *testing.T) {
	b := Setup(engines()["swisstm"](), testConfig(90))
	th := b.E.NewThread(1)
	rng := util.NewRand(7)
	// Count live composites before and after: SM removes one and adds one
	// when the slot was occupied, so the total in the index stays equal.
	count := func() int {
		return stm.AtomicRO(th, func(tx stm.TxRO) int {
			return b.CompIdx.RangeCount(tx, 0, ^stm.Word(0)>>1)
		})
	}
	// Note: multiple base-assembly slots may share one composite, in which
	// case replacing one slot removes a composite still referenced
	// elsewhere from the index; Check() would catch that. With distinct
	// slots the count is preserved.
	before := count()
	o := b.NewOps(th, rng)
	for i := 0; i < 5; i++ {
		o.StructureMod()
	}
	after := count()
	if after < before-5 || after > before+5 {
		t.Fatalf("composite count moved from %d to %d", before, after)
	}
}

func TestConcurrentMixedWorkloads(t *testing.T) {
	for name, factory := range engines() {
		for _, ro := range []int{90, 60, 10} {
			name := name
			ro := ro
			t.Run(name+"/"+map[int]string{90: "read", 60: "rw", 10: "write"}[ro], func(t *testing.T) {
				b := Setup(factory(), testConfig(ro))
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						o := b.NewOps(b.E.NewThread(id+1), util.NewRand(uint64(id)*77+1))
						for n := 0; n < 120; n++ {
							o.Op()
						}
					}(i)
				}
				wg.Wait()
				if err := b.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLongTraversalSnapshotUnderWriters pins the snapshot consistency of
// long read-only traversals on the time-based engines. One thread
// traverses while writers concurrently relink composites
// (StructureMod), swap part coordinates (UpdateComponent) and bump every
// composite's date (LongTraversalUpdate). A traversal re-reads the
// stripes of shared composites and index nodes non-consecutively, so it
// relies on extend() revalidating its earlier log entries. Every
// committed LongTraversal must count exactly len(Bases) × compPerBase ×
// AtomicPerComp parts, the structure writers preserve; and a read-only
// transaction that walks the whole structure twice, summing dates and
// coordinates, must read the same sum both times.
func TestLongTraversalSnapshotUnderWriters(t *testing.T) {
	for _, name := range []string{"swisstm", "tinystm"} {
		t.Run(name, func(t *testing.T) {
			b := Setup(engines()[name](), testConfig(60))
			want := stm.Word(len(b.Bases) * compPerBase * b.Cfg.AtomicPerComp)
			var stop atomic.Bool
			var writes atomic.Int64
			var wg sync.WaitGroup
			for i, op := range []func(*Ops){(*Ops).StructureMod, (*Ops).UpdateComponent, (*Ops).LongTraversalUpdate} {
				wg.Add(1)
				go func(id int, op func(*Ops)) {
					defer wg.Done()
					o := b.NewOps(b.E.NewThread(id+2), util.NewRand(uint64(id)*31+3))
					// Capped: aborted and committed StructureMods both
					// consume arena words, which are never reclaimed.
					for n := 0; n < 2000 && !stop.Load(); n++ {
						op(o)
						writes.Add(1)
					}
				}(i, op)
			}
			th := b.E.NewThread(1)
			o := b.NewOps(th, util.NewRand(17))
			ws := newWalkScratch(&b.Cfg)
			walkSum := func(tx stm.TxRO) stm.Word {
				var sum stm.Word
				b.assemblyWalk(tx, func(comp stm.Handle) {
					sum += tx.ReadField(comp, cpDate)
					b.graphWalk(tx, comp, &ws, func(p stm.Handle) {
						sum += 3*tx.ReadField(p, apX) + tx.ReadField(p, apY)
					})
				})
				return sum
			}
			twice := func(tx stm.TxRO) bool {
				first := walkSum(tx)
				return walkSum(tx) == first
			}
			// Keep traversing until the writers have committed enough to
			// interleave with many traversals, however they are scheduled.
			for n := 0; n < 60 || writes.Load() < 300; n++ {
				if got := o.LongTraversal(); got != want {
					t.Errorf("traversal %d counted %d parts, want %d", n, got, want)
				}
				if !stm.AtomicRO(th, twice) {
					t.Errorf("walk %d: a second pass in one transaction read a different sum", n)
				}
			}
			stop.Store(true)
			wg.Wait()
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
			s := th.Stats()
			t.Logf("traversal thread: %d commits, %d aborts (%d read-validation); %d writer commits",
				s.Commits, s.Aborts, s.AbortsValidRead, writes.Load())
		})
	}
}
