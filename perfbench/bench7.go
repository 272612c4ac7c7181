package main

import (
	"sync"
	"time"

	"swisstm/internal/bench7"
	"swisstm/internal/harness"
	"swisstm/internal/stm"
	"swisstm/internal/util"
)

const (
	b7Threads = 2
	b7Setups  = 9 // set-ups per run; setup_s and recovery_s are their medians
	// b7QuotaRate sizes the fixed per-thread op quota: --seconds ×
	// b7QuotaRate ops per thread, about --seconds of work on a 2-vCPU
	// host.
	b7QuotaRate = 25000
	// b7BaseWords holds the default-size structure with room to spare.
	b7BaseWords = 1 << 20
	// b7WordsPerOp is the arena budget per op. Structure modifications
	// never reclaim the composite parts they unlink (README.md, "Known
	// defect"), so the arena must grow with the op quota.
	b7WordsPerOp = 32
)

// b7Worker is one engine thread with its operation table.
type b7Worker struct {
	th   stm.Thread
	ops  *bench7.Ops
	sel  *util.Rand // draws the op class, as bench7.Ops.Op does
	rdPc int
	recs []opRec
	sb   *spanBuf
}

// op runs one operation of the mix and names it.
func (w *b7Worker) op() spanName {
	readOnly := w.sel.Intn(100) < w.rdPc
	roll := w.sel.Intn(100)
	if readOnly {
		switch {
		case roll < 40:
			w.ops.ShortRead()
			return spB7ShortRead
		case roll < 80:
			w.ops.ReadComponent()
			return spB7ReadComponent
		case roll < 95:
			w.ops.QueryDates()
			return spB7QueryDates
		default:
			w.ops.LongTraversal()
			return spB7LongTraversal
		}
	}
	switch {
	case roll < 40:
		w.ops.ShortUpdate()
		return spB7ShortUpdate
	case roll < 80:
		w.ops.UpdateComponent()
		return spB7UpdateComponent
	case roll < 95:
		w.ops.StructureMod()
		return spB7StructureMod
	default:
		w.ops.LongTraversalUpdate()
		return spB7LongTraversalUpdate
	}
}

// runBench7 is the stm-bench7-rw run: build the structure (repeated),
// run the fixed quota on 2 threads, check the structure.
func runBench7(c *runCtx) error {
	quota := uint64(c.seconds) * b7QuotaRate
	// The arena is sized from the op quota (see b7WordsPerOp).
	spec := harness.EngineSpec{Kind: "swisstm", ArenaWords: b7BaseWords + int(quota)*b7Threads*b7WordsPerOp}
	cfg := bench7.ReadWrite
	var b *bench7.Bench
	var setups, rebuilds []float64
	for i := 0; i < b7Setups; i++ {
		b = nil
		settle()
		t0 := time.Now()
		b = bench7.Setup(spec.New(), cfg)
		setups = append(setups, time.Since(t0).Seconds())
		// The engine keeps no log, so a restart is a rebuild: recovery_s
		// is a set-up plus its first served operation.
		th := b.E.NewThread(b7Threads + 1) // the workers are 1..b7Threads
		b.NewOps(th, util.NewRand(harness.DeriveSeed(c.seed, "stm-bench7-rw/first", i, 0))).ShortRead()
		rebuilds = append(rebuilds, time.Since(t0).Seconds())
	}
	c.l.add("setup_s", "s", setups...)
	c.l.add("recovery_s", "s", rebuilds...)
	e := b.E

	workers := make([]*b7Worker, b7Threads)
	for i := range workers {
		th := e.NewThread(i + 1) // id 0 is Setup's
		workers[i] = &b7Worker{
			th:   th,
			ops:  b.NewOps(th, util.NewRand(harness.DeriveSeed(c.seed, "stm-bench7-rw/params", i, 0))),
			sel:  util.NewRand(harness.DeriveSeed(c.seed, "stm-bench7-rw/mix", i, 0)),
			rdPc: cfg.ReadOnlyPct,
		}
	}
	var untracedMean float64
	windows := c.windows()
	for wi := range windows {
		traced := c.traced(wi)
		q := quota / uint64(len(windows))
		for _, w := range workers {
			w.recs = make([]opRec, 0, q)
			w.sb = c.spanBuf(traced)
		}
		st0 := threadStats(workers)
		used0 := e.Arena().Used()
		start := time.Now()
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *b7Worker) {
				defer wg.Done()
				for n := uint64(0); n < q; n++ {
					t0 := time.Now()
					name := w.op()
					t1 := time.Now()
					w.sb.record(name, 0, t0, t1)
					w.recs = append(w.recs, newOpRec(t0.Sub(start), t1.Sub(t0)))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		st := subStats(threadStats(workers), st0)
		var recs []opRec
		for _, w := range workers {
			recs = append(recs, w.recs...)
		}
		ops := float64(len(recs))
		c.rep.Attempted += int64(len(recs))
		wordsPerOp := float64(e.Arena().Used()-used0) / ops
		mean := meanLat(recs)
		if !traced {
			untracedMean = mean
			full := elapsed.Truncate(subWindow) // whole sub-windows; the tail is one thread finishing alone
			if full == 0 {
				full = elapsed
			}
			endToEnd(c.l, recs, full, false)
			if !c.trace {
				c.l.add("stm.arena_words_per_op", "count", wordsPerOp)
			}
			continue
		}
		c.l.add("trace.overhead_ratio", "ratio", mean/untracedMean)
		c.l.add("stm.arena_words_per_op", "count", wordsPerOp)
		stmLayers(c.l, st, ops)
		var bufs []*spanBuf
		for _, w := range workers {
			bufs = append(bufs, w.sb)
		}
		dur := durations(bufs)
		for sp := spB7ShortRead; sp <= spB7StructureMod; sp++ {
			if d := dur[sp]; len(d) > 0 {
				c.l.add(spanNames[sp]+"_p50_us", "us", pctNs(d, 0.50)/1e3)
				c.l.add(spanNames[sp]+"_p99_us", "us", pctNs(d, 0.99)/1e3)
			}
		}
	}
	c.check("bench7-structure", b.Check())
	if err := c.addPeakRSS(); err != nil {
		return err
	}
	return nil
}

// threadStats sums the workers' engine counters. The threads must be
// quiescent.
func threadStats(workers []*b7Worker) stm.Stats {
	var s stm.Stats
	for _, w := range workers {
		s.Add(w.th.Stats())
	}
	return s
}

// subStats is b − a over the counters stmLayers reads.
func subStats(b, a stm.Stats) stm.Stats {
	return stm.Stats{
		Commits:           b.Commits - a.Commits,
		ROCommits:         b.ROCommits - a.ROCommits,
		Aborts:            b.Aborts - a.Aborts,
		AbortsWW:          b.AbortsWW - a.AbortsWW,
		AbortsLocked:      b.AbortsLocked - a.AbortsLocked,
		LockAcquireFail:   b.LockAcquireFail - a.LockAcquireFail,
		AbortsKilled:      b.AbortsKilled - a.AbortsKilled,
		AbortsValidRead:   b.AbortsValidRead - a.AbortsValidRead,
		AbortsValidCommit: b.AbortsValidCommit - a.AbortsValidCommit,
		ValidationReads:   b.ValidationReads - a.ValidationReads,
		ReadsLogged:       b.ReadsLogged - a.ReadsLogged,
		ReadsDeduped:      b.ReadsDeduped - a.ReadsDeduped,
	}
}

// stmLayers adds the engine's per-op counters over a window.
func stmLayers(l *ledger, st stm.Stats, ops float64) {
	l.add("stm.commits_per_op", "count", ratio(float64(st.Commits), ops))
	l.add("stm.aborts_per_commit", "count", ratio(float64(st.Aborts), float64(st.Commits)))
	l.add("stm.aborts.read_validation_per_op", "count", ratio(float64(st.AbortsValidRead), ops))
	l.add("stm.aborts.commit_validation_per_op", "count", ratio(float64(st.AbortsValidCommit), ops))
	l.add("stm.aborts.lock_conflict_per_op", "count", ratio(float64(st.AbortsWW+st.AbortsLocked+st.LockAcquireFail), ops))
	l.add("stm.aborts.cm_kill_per_op", "count", ratio(float64(st.AbortsKilled), ops))
	l.add("stm.validation_reads_per_op", "count", ratio(float64(st.ValidationReads), ops))
	l.add("stm.reads_logged_per_op", "count", ratio(float64(st.ReadsLogged), ops))
	l.add("stm.reads_deduped_ratio", "fraction", ratio(float64(st.ReadsDeduped), float64(st.ReadsDeduped+st.ReadsLogged)))
	l.add("stm.ro_commit_ratio", "fraction", ratio(float64(st.ROCommits), float64(st.Commits)))
}
