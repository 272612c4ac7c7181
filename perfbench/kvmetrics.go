package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"swisstm/internal/txkvwire"
)

// opRec is one completed operation: when it started (closed loop) or
// was due (open loop), in microseconds from the window start, and its
// latency from then in nanoseconds. Eight bytes an op keep the
// benchmark's own memory small beside the system's in peak_rss_mb.
type opRec struct{ atUs, latNs uint32 }

func newOpRec(at, lat time.Duration) opRec {
	if lat > math.MaxUint32 {
		lat = math.MaxUint32 // 4.3 s: far past any percentile a healthy run reports
	}
	return opRec{atUs: uint32(at / time.Microsecond), latNs: uint32(lat)}
}

func (r opRec) at() int64  { return int64(r.atUs) * 1e3 }
func (r opRec) lat() int64 { return int64(r.latNs) }

// meanLat is the mean op latency in nanoseconds.
func meanLat(recs []opRec) float64 {
	if len(recs) == 0 {
		return 0
	}
	var sum int64
	for _, r := range recs {
		sum += r.lat()
	}
	return float64(sum) / float64(len(recs))
}

// subWindow is the slice of a measured window each latency percentile
// is taken over; at kv-durable's 3,000 ops/s it still leaves 15 samples
// beyond the p99.
const subWindow = 500 * time.Millisecond

// subWindows splits a window into sub-windows: throughput by completion
// time, latency percentiles by start (or due) time.
func subWindows(recs []opRec, d time.Duration) (thr, p50, p99 []float64) {
	k := int(d / subWindow)
	if k < 1 {
		k = 1
	}
	width := int64(d) / int64(k)
	lat := make([][]int64, k)
	done := make([]int, k)
	for _, r := range recs {
		if i := r.at() / width; i < int64(k) {
			lat[i] = append(lat[i], r.lat())
		}
		if i := (r.at() + r.lat()) / width; i < int64(k) {
			done[i]++
		}
	}
	for i := 0; i < k; i++ {
		thr = append(thr, float64(done[i])/time.Duration(width).Seconds())
		p50 = append(p50, pctNs(lat[i], 0.50)/1e3)
		p99 = append(p99, pctNs(lat[i], 0.99)/1e3)
	}
	return thr, p50, p99
}

// throughput is completed ops over the time from the window start to
// the last completion.
func throughput(recs []opRec) float64 {
	var last int64
	for _, r := range recs {
		if end := r.at() + r.lat(); end > last {
			last = end
		}
	}
	return ratio(float64(len(recs)), time.Duration(last).Seconds())
}

// endToEnd adds the user-visible metrics of a window of d: throughput
// over the whole window, and latency percentiles per sub-window reduced
// across the sub-windows. A stall of the shared host (a neighbour's
// fsync burst, a descheduled vCPU) delays a closed loop's few in-flight
// ops, but an open loop charges it to every arrival queued behind it,
// so it can spoil most of an open-loop run's sub-window p99s. Those are
// reduced by their lower decile: a change that lengthens the system's
// own tail still raises every sub-window's p99, the calm ones included.
// Everything else is reduced by the median. The sub-window series go to
// the report for their spread.
func endToEnd(l *ledger, recs []opRec, d time.Duration, openLoop bool) {
	thr, p50, p99 := subWindows(recs, d)
	l.add("throughput_ops_s", "ops/s", throughput(recs))
	l.add("lat_p50_us", "us", p50...)
	if openLoop {
		sorted := append([]float64(nil), p99...)
		sort.Float64s(sorted)
		l.add("lat_p99_us", "us", quantileSorted(sorted, 0.10))
	} else {
		l.add("lat_p99_us", "us", p99...)
	}
	l.add("throughput_ops_s.per_subwindow", "ops/s", thr...)
	l.add("lat_p99_us.per_subwindow", "us", p99...)
}

// generator adds the open-loop generator's health: how often and how
// late it dispatched an arrival after its due time.
func (win *kvWindow) generator(l *ledger) {
	if len(win.lags) == 0 {
		return
	}
	late := 0
	for _, lag := range win.lags {
		if lag > int64(lateAfter) {
			late++
		}
	}
	l.add("gen.late_ratio", "fraction", float64(late)/float64(len(win.lags)))
	l.add("gen.lag_p99_us", "us", pctNs(win.lags, 0.99)/1e3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kvLayers adds the traced window's per-layer metrics: the client and
// wire from the benchmark's spans, the server, engine, coalescer and
// commit log from the server's counters diffed across the window.
func kvLayers(l *ledger, w kvWorkload, win *kvWindow, st txkvwire.Stats, sc0, sc1 scrape) {
	dur := durations(win.spans)
	calls := []struct {
		op string
		sp spanName
	}{{"get", spClientGet}, {"put", spClientPut}, {"cas", spClientCAS}, {"scan", spClientScan}}
	var all []int64
	for _, c := range calls {
		d := dur[c.sp]
		if len(d) == 0 {
			continue
		}
		all = append(all, d...)
		l.add("txkvclient."+c.op+"_p50_us", "us", pctNs(d, 0.50)/1e3)
		l.add("txkvclient."+c.op+"_p99_us", "us", pctNs(d, 0.99)/1e3)
	}
	l.add("txkvwire.encode_ns", "ns", meanOf(dur[spWireEncode]))
	l.add("txkvwire.decode_ns", "ns", meanOf(dur[spWireDecode]))
	l.add("txkvwire.req_bytes", "bytes", meanOf(win.reqBytes))
	l.add("txkvwire.reply_bytes", "bytes", meanOf(win.repBytes))

	reqs := float64(st.Requests)
	ops := float64(win.attempted)
	total := windowHist(sc0, sc1, seriesMatch("txkv_request_ns"))
	l.add("txkvserver.parse_ns", "ns", ratio(float64(st.ParseNs), reqs))
	l.add("txkvserver.queue_ns", "ns", ratio(float64(st.QueueNs), reqs))
	l.add("txkvserver.reply_ns", "ns", ratio(float64(st.ReplyNs), reqs))
	l.add("txkvserver.total_p50_us", "us", total.quantile(0.50)/1e3)
	l.add("txkvserver.total_p99_us", "us", total.quantile(0.99)/1e3)
	l.add("txkvserver.sheds_per_op", "count", ratio(float64(st.Sheds), reqs))
	// What no server phase accounts for: loopback, kernel, scheduler.
	l.add("txkvserver.unattributed_us", "us", (meanOf(all)-total.mean())/1e3)

	l.add("stm.txn_ns", "ns", ratio(float64(st.TxnNs), reqs))
	l.add("stm.commit_ns", "ns", ratio(float64(st.CommitNs), reqs))
	l.add("stm.commits_per_op", "count", ratio(float64(st.Commits), ops))
	l.add("stm.aborts_per_commit", "count", ratio(float64(st.Aborts), float64(st.Commits)))
	l.add("stm.aborts.read_validation_per_op", "count", ratio(float64(st.AbortsValidRead), ops))
	l.add("stm.aborts.commit_validation_per_op", "count", ratio(float64(st.AbortsValidCommit), ops))
	l.add("stm.aborts.lock_conflict_per_op", "count", ratio(float64(st.AbortsWW+st.AbortsLocked+st.LockAcquireFail), ops))
	l.add("stm.aborts.cm_kill_per_op", "count", ratio(float64(st.AbortsKilled), ops))
	if scan := windowHist(sc0, sc1, seriesMatch("txkv_phase_ns", `op="sum"`, `phase="txn"`)); scan.count > 0 {
		l.add("stm.scan_txn_p99_us", "us", scan.quantile(0.99)/1e3)
	}

	if w.durable {
		coalesced := func(key string) bool {
			if !seriesMatch("txkv_phase_ns", `phase="queue"`)(key) {
				return false
			}
			for _, op := range []string{"get", "put", "cas"} {
				if strings.Contains(key, `op="`+op+`"`) {
					return true
				}
			}
			return false
		}
		l.add("coalesce.items_per_batch", "count", ratio(float64(st.CoalesceItems), float64(st.CoalesceBatches)))
		l.add("coalesce.queue_ns", "ns", windowHist(sc0, sc1, coalesced).mean())
		l.add("coalesce.commits_per_op", "count", ratio(float64(st.CoalesceBatches), float64(st.CoalesceItems)))
		l.add("wal.append_ns", "ns", windowHist(sc0, sc1, seriesMatch("wal_append_ns")).mean())
		l.add("wal.fsync_p99_us", "us", windowHist(sc0, sc1, seriesMatch("wal_fsync_ns")).quantile(0.99)/1e3)
		l.add("wal.fsyncs_per_op", "count", ratio(float64(st.WalFsyncs), ops))
		l.add("wal.frames_per_op", "count", ratio(float64(st.WalFrames), ops))
		// A user byte is a key or value word of an acknowledged write.
		l.add("wal.bytes_per_user_byte", "ratio", ratio(float64(st.WalBytes), 16*float64(win.mutations)))
	}
	win.generator(l)
}

// diffStats is b − a over the wire Stats' cumulative counters.
func diffStats(a, b txkvwire.Stats) txkvwire.Stats {
	return txkvwire.Stats{
		Requests:          b.Requests - a.Requests,
		ParseNs:           b.ParseNs - a.ParseNs,
		QueueNs:           b.QueueNs - a.QueueNs,
		TxnNs:             b.TxnNs - a.TxnNs,
		CommitNs:          b.CommitNs - a.CommitNs,
		ReplyNs:           b.ReplyNs - a.ReplyNs,
		WalNs:             b.WalNs - a.WalNs,
		Commits:           b.Commits - a.Commits,
		Aborts:            b.Aborts - a.Aborts,
		WalFrames:         b.WalFrames - a.WalFrames,
		WalBytes:          b.WalBytes - a.WalBytes,
		AbortsWW:          b.AbortsWW - a.AbortsWW,
		AbortsValid:       b.AbortsValid - a.AbortsValid,
		AbortsLocked:      b.AbortsLocked - a.AbortsLocked,
		AbortsKilled:      b.AbortsKilled - a.AbortsKilled,
		AbortsExplicit:    b.AbortsExplicit - a.AbortsExplicit,
		AbortsUser:        b.AbortsUser - a.AbortsUser,
		LockAcquireFail:   b.LockAcquireFail - a.LockAcquireFail,
		AbortsValidRead:   b.AbortsValidRead - a.AbortsValidRead,
		AbortsValidCommit: b.AbortsValidCommit - a.AbortsValidCommit,
		Sheds:             b.Sheds - a.Sheds,
		DeadlineExceeded:  b.DeadlineExceeded - a.DeadlineExceeded,
		ConnsRejected:     b.ConnsRejected - a.ConnsRejected,
		CoalesceBatches:   b.CoalesceBatches - a.CoalesceBatches,
		CoalesceItems:     b.CoalesceItems - a.CoalesceItems,
		FeedEvents:        b.FeedEvents - a.FeedEvents,
		WalFsyncs:         b.WalFsyncs - a.WalFsyncs,
	}
}
