package stmtest

import (
	"testing"

	"swisstm/internal/stm"
)

// ZeroAllocSteadyState asserts the allocation-free transaction lifecycle
// invariant of DESIGN.md §7, now through the v2 value-returning API
// (DESIGN.md §9): once a thread's logs, pools and caches are warm,
// committed transactions allocate nothing. It checks a value-returning
// read-only transaction via both Atomic and the declared-read-only
// AtomicRO fast path (with a re-read, so the read-log path is exercised) and
// — when updates is true — a small update transaction. Engines whose
// design inherently allocates on writes (RSTM clones objects per
// acquisition) pass updates=false and are only held to the read-only
// bound.
func ZeroAllocSteadyState(t *testing.T, e stm.STM, wordAPI, updates bool) {
	t.Helper()
	th := e.NewThread(0)

	var roBody func(stm.Tx) stm.Word
	var roBodyRO func(stm.TxRO) stm.Word
	var upBody func(stm.Tx)
	if wordAPI {
		base := stm.Atomic(th, func(tx stm.Tx) stm.Addr {
			b := tx.AllocWords(16)
			for i := stm.Addr(0); i < 16; i++ {
				tx.Store(b+i, stm.Word(i))
			}
			return b
		})
		roBody = func(tx stm.Tx) stm.Word {
			var sum stm.Word
			for i := stm.Addr(0); i < 8; i++ {
				sum += tx.Load(base + i)
			}
			return sum + tx.Load(base) // non-consecutive re-read: a duplicate log entry
		}
		roBodyRO = func(tx stm.TxRO) stm.Word {
			var sum stm.Word
			for i := stm.Addr(0); i < 8; i++ {
				sum += tx.Load(base + i)
			}
			return sum + tx.Load(base)
		}
		upBody = func(tx stm.Tx) {
			v := tx.Load(base)
			tx.Store(base+1, v+1)
			tx.Store(base+9, v+2)
		}
	} else {
		obj := stm.Atomic(th, func(tx stm.Tx) stm.Handle {
			o := tx.NewObject(8)
			for i := uint32(0); i < 8; i++ {
				tx.WriteField(o, i, stm.Word(i))
			}
			return o
		})
		roBody = func(tx stm.Tx) stm.Word {
			var sum stm.Word
			for i := uint32(0); i < 8; i++ {
				sum += tx.ReadField(obj, i)
			}
			return sum + tx.ReadField(obj, 0)
		}
		roBodyRO = func(tx stm.TxRO) stm.Word {
			var sum stm.Word
			for i := uint32(0); i < 8; i++ {
				sum += tx.ReadField(obj, i)
			}
			return sum + tx.ReadField(obj, 0)
		}
		upBody = func(tx stm.Tx) {
			v := tx.ReadField(obj, 0)
			tx.WriteField(obj, 1, v+1)
		}
	}

	// Warm the per-thread logs and write-entry pools.
	var sink stm.Word
	for i := 0; i < 100; i++ {
		sink += stm.Atomic(th, roBody)
		sink += stm.AtomicRO(th, roBodyRO)
		if updates {
			stm.AtomicVoid(th, upBody)
		}
	}
	_ = sink

	if n := testing.AllocsPerRun(200, func() { sink = stm.Atomic(th, roBody) }); n != 0 {
		t.Errorf("%s: read-only Atomic allocates %.1f objects/commit, want 0", e.Name(), n)
	}
	if n := testing.AllocsPerRun(200, func() { sink = stm.AtomicRO(th, roBodyRO) }); n != 0 {
		t.Errorf("%s: declared read-only AtomicRO allocates %.1f objects/commit, want 0", e.Name(), n)
	}
	if updates {
		if n := testing.AllocsPerRun(200, func() { stm.AtomicVoid(th, upBody) }); n != 0 {
			t.Errorf("%s: small update transaction allocates %.1f objects/commit, want 0", e.Name(), n)
		}
	}
}

// ZeroAllocLoop extends the steady-state gate to whole benchmark
// operation loops (bench7's pre-bound op tables, for instance): after
// `warm` warm-up calls, `op` must allocate nothing per call. It shares
// ZeroAllocSteadyState's philosophy — warm the per-thread structures
// first, then hold the hot loop to exactly zero.
func ZeroAllocLoop(t *testing.T, name string, warm int, op func()) {
	t.Helper()
	for i := 0; i < warm; i++ {
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, n)
	}
}
