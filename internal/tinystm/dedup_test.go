package tinystm

import (
	"sync"
	"testing"

	"swisstm/internal/stm"
)

func newDedupEngine() *Engine {
	return New(Config{ArenaWords: 1 << 12, TableBits: 8, StripeWords: 4})
}

// TestDedupLogsStripeOnce: a re-read of the newest logged stripe — same
// word or sibling word — appends no entry, while a non-consecutive
// re-read appends a duplicate carrying the same version as the first entry
// for its stripe. For A, A', B repeated 10 times that is 20 entries
// (A and B each round) and 10 deduped reads (every A').
func TestDedupLogsStripeOnce(t *testing.T) {
	e := newDedupEngine()
	th := e.NewThread(0)
	tx0 := th.(*txn)
	base := e.arena.Alloc(8) // spans two 4-word stripes
	stm.AtomicVoid(th, func(tx stm.Tx) {
		for rep := 0; rep < 10; rep++ {
			tx.Load(base)     // stripe A (a duplicate entry after round 0)
			tx.Load(base + 1) // stripe A again (sibling word): deduped
			tx.Load(base + 4) // stripe B
		}
		if got := len(tx0.readLog); got != 20 {
			t.Errorf("read log has %d entries, want 20 (A and B once per round)", got)
		}
		first := map[uint32]uint64{}
		for i, re := range tx0.readLog {
			if f, ok := first[re.idx]; !ok {
				first[re.idx] = re.ver
			} else if re.ver != f {
				t.Errorf("entry %d for stripe %d carries version %d, first entry %d", i, re.idx, re.ver, f)
			}
		}
		if len(first) != 2 {
			t.Errorf("read log covers %d stripes, want 2", len(first))
		}
	})
	s := th.Stats()
	if s.ReadsLogged != 20 {
		t.Errorf("ReadsLogged = %d, want 20", s.ReadsLogged)
	}
	if s.ReadsDeduped != 10 {
		t.Errorf("ReadsDeduped = %d, want 10 (30 reads, 20 logged)", s.ReadsDeduped)
	}
}

// TestDedupDoesNotMaskConflict: a conflicting commit between the first
// and a later read of one stripe must abort the reader exactly once, and
// the retry must see one consistent value. Two shapes: a consecutive
// re-read (A, commit to A, A) hits the newest-entry check, which aborts
// because the observed version moved; a non-consecutive one (A, B, commit
// to A, A) appends a duplicate whose version is newer than the snapshot,
// so extend() revalidates the stale first entry and fails. Both count
// as AbortsValidRead.
func TestDedupDoesNotMaskConflict(t *testing.T) {
	for _, tc := range []struct {
		name    string
		between bool // read another stripe between the two reads of A
	}{
		{"consecutive", false},
		{"non-consecutive", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newDedupEngine()
			thA := e.NewThread(0)
			thB := e.NewThread(1)
			addr := e.arena.Alloc(4)  // stripe A
			other := e.arena.Alloc(4) // stripe B
			e.arena.Store(addr, 1)

			attempts := 0
			var first, second stm.Word
			stm.AtomicVoid(thA, func(tx stm.Tx) {
				attempts++
				first = tx.Load(addr)
				if tc.between {
					tx.Load(other)
				}
				if attempts == 1 {
					// Inject a conflicting commit from another thread
					// while the stripe is already in A's read log.
					stm.AtomicVoid(thB, func(txB stm.Tx) { txB.Store(addr, 2) })
				}
				second = tx.Load(addr)
			})
			if attempts != 2 {
				t.Fatalf("transaction ran %d attempts, want 2 (abort + clean retry)", attempts)
			}
			if first != second || first != 2 {
				t.Fatalf("committed attempt saw %d then %d, want consistent 2", first, second)
			}
			if s := thA.Stats(); s.AbortsValidRead == 0 {
				t.Errorf("expected the injected conflict to count as a read validation abort, got %+v", s)
			}
		})
	}
}

// TestDedupOpacityUnderContention re-reads two invariant-linked words
// from several threads while writers update them, under -race; the dedup
// cache must never let re-reads disagree or the invariant appear broken.
func TestDedupOpacityUnderContention(t *testing.T) {
	e := newDedupEngine()
	setup := e.NewThread(0)
	x := e.arena.Alloc(1)
	y := e.arena.Alloc(5) // a different stripe than x
	stm.AtomicVoid(setup, func(tx stm.Tx) {
		tx.Store(x, 0)
		tx.Store(y, 0)
	})

	const workers = 4
	const txns = 2000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := e.NewThread(id + 1)
			for i := 0; i < txns; i++ {
				if id%2 == 0 {
					stm.AtomicVoid(th, func(tx stm.Tx) {
						v := tx.Load(x)
						tx.Store(x, v+1)
						tx.Store(y, v+1)
					})
					continue
				}
				var bad string
				stm.AtomicVoid(th, func(tx stm.Tx) {
					bad = ""
					a1, b1 := tx.Load(x), tx.Load(y)
					a2, b2 := tx.Load(x), tx.Load(y) // dedup hits
					if a1 != a2 || b1 != b2 {
						bad = "re-read disagreed with first read"
					} else if a1 != b1 {
						bad = "invariant x == y violated inside a transaction"
					}
				})
				if bad != "" {
					select {
					case errs <- bad:
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
