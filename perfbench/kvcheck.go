package main

import (
	"errors"
	"fmt"
	"time"

	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
)

// kvState is the store's contents as read over the wire.
type kvState struct {
	n      uint64   // Len
	shards []uint64 // per-shard Sum
	vals   []uint64 // vals[k-1] is key k's value; 0 = missing
}

// readState reads Len, every shard's Sum and every key's value (in
// batched Gets) from a quiescent server.
func readState(cl *txkvclient.Client) (kvState, error) {
	var st kvState
	var err error
	if st.n, err = cl.Len(); err != nil {
		return st, err
	}
	for s := 0; s < txkv.ConfigForKeys(kvKeys).Shards; s++ {
		sum, err := cl.Sum(s)
		if err != nil {
			return st, err
		}
		st.shards = append(st.shards, sum)
	}
	st.vals = make([]uint64, kvKeys)
	subs := make([]txkvwire.Req, 0, txkvwire.MaxBatch)
	for lo := 1; lo <= kvKeys; lo += txkvwire.MaxBatch {
		subs = subs[:0]
		for k := lo; k < lo+txkvwire.MaxBatch && k <= kvKeys; k++ {
			subs = append(subs, txkvwire.Req{Op: txkvwire.OpGet, Key: uint64(k)})
		}
		replies, abortErr, err := cl.Batch(subs)
		if err == nil {
			err = abortErr
		}
		if err != nil {
			return st, fmt.Errorf("read keys %d..: %w", lo, err)
		}
		for i, r := range replies {
			if r.Found {
				st.vals[lo-1+i] = r.Val
			}
		}
	}
	return st, nil
}

// checkState reads the store after the load and checks it against the
// clients' history: the key population is intact, every read returned
// a value some client wrote to that key (or the prefill balance), every
// key holds the last write one of the writers had acknowledged, and the
// shard sums add up to the keys' values.
func (in *kvInstance) checkState(c *runCtx, hist *kvHistory) (kvState, error) {
	st, err := readState(in.ctl)
	if err != nil {
		return st, err
	}
	balance := uint64(txkv.DefaultBalance)

	var popErr error
	if st.n != kvKeys {
		popErr = fmt.Errorf("Len %d, want %d", st.n, kvKeys)
	}
	for k, v := range st.vals {
		if v == 0 && popErr == nil {
			popErr = fmt.Errorf("key %d missing", k+1)
		}
	}
	c.check("population", popErr)

	c.check("reads", hist.badRead)

	last := map[uint64][]uint64{} // key → each writer's last acknowledged value
	for _, acked := range hist.acked {
		mine := map[uint64]uint64{}
		for _, p := range acked {
			mine[p.key] = p.val
		}
		for k, v := range mine {
			last[k] = append(last[k], v)
		}
	}
	var lastErr error
	for i, v := range st.vals {
		key := uint64(i + 1)
		cands, written := last[key]
		ok := !written && (v == balance || hist.written[v] == key)
		for _, c := range cands {
			ok = ok || c == v
		}
		if !ok {
			lastErr = fmt.Errorf("key %d holds %#x, not a writer's last acknowledged write", key, v)
			break
		}
	}
	c.check("last-write", lastErr)

	var sumShards, sumKeys uint64
	for _, s := range st.shards {
		sumShards += s
	}
	for _, v := range st.vals {
		sumKeys += v
	}
	var sumErr error
	if sumShards != sumKeys {
		sumErr = fmt.Errorf("shard sums total %d, keys total %d", sumShards, sumKeys)
	}
	c.check("balance", sumErr)
	return st, nil
}

// restarts starts a fresh server on the drained server's commit log
// until it serves its first request, kvRestarts times, and checks each
// recovered store equals the drained one.
func restarts(c *runCtx, w kvWorkload, dir string, before kvState) error {
	var times, frames []float64
	for i := 0; i < kvRestarts; i++ {
		settle()
		t0 := time.Now()
		srv, err := txkvserver.Start("127.0.0.1:0", w.serverConfig(dir))
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		cl, err := txkvclient.Dial(srv.Addr().String())
		if err == nil {
			_, _, err = cl.Get(1) // the first request
		}
		times = append(times, time.Since(t0).Seconds())
		if err == nil {
			err = checkRestart(c, cl, before)
		}
		frames = append(frames, float64(srv.WalRecovery().Frames))
		if cl != nil {
			cl.Close()
		}
		if derr := srv.Drain(); err == nil {
			err = derr
		}
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
	}
	c.l.add("recovery_s", "s", times...)
	c.l.add("wal.recovered_frames", "count", frames...)
	return nil
}

// checkRestart compares a restarted server's whole store with the
// drained one's.
func checkRestart(c *runCtx, cl *txkvclient.Client, before kvState) error {
	after, err := readState(cl)
	if err != nil {
		return err
	}
	var durErr error
	switch {
	case after.n != before.n:
		durErr = fmt.Errorf("Len %d after restart, %d before", after.n, before.n)
	case len(after.shards) != len(before.shards):
		durErr = errors.New("shard count changed across restart")
	default:
		for s := range after.shards {
			if after.shards[s] != before.shards[s] {
				durErr = fmt.Errorf("shard %d sums to %d after restart, %d before", s, after.shards[s], before.shards[s])
				break
			}
		}
		for i := range after.vals {
			if durErr == nil && after.vals[i] != before.vals[i] {
				durErr = fmt.Errorf("key %d holds %#x after restart, %#x before", i+1, after.vals[i], before.vals[i])
			}
		}
	}
	c.check("durability", durErr)
	return nil
}
