// Command coalsmoke is the commit-coalescing smoke gate
// (`make smoke-coalesce`, DESIGN.md §14): for each engine it starts an
// in-process txkvserver with per-shard commit coalescing on, the
// durable commit log in group-fsync mode, and the admin surface bound;
// subscribes a change-feed tailer to every shard from sequence 1
// BEFORE any load; then drives pipelined load over real TCP — an
// open-loop update-heavy run through the coalesced path and a
// closed-loop transfer run for the balance-conservation oracle. It
// fails on:
//
//   - a violated over-the-wire oracle (key population, balance
//     conservation),
//   - a lost or duplicated reply (completed ops != offered ops, or any
//     shed reply in a run structurally below every admission limit),
//   - a coalesced path that never engaged (no batches flushed),
//   - a feed subscriber that misses an event, sees one twice or out of
//     commit order (non-contiguous sequences, or a replay of the feed
//     that disagrees with the store's final state),
//   - a subscriber still stalled 10s after the server drained, and
//   - a /metrics page without a positive batch-size histogram.
//
// Exit status 0 means every engine passed.
package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
	"swisstm/internal/txkvwire"
	"swisstm/internal/wal"
)

const (
	smokeKeys = 512
	opsOpen   = 1200
	opsClosed = 600
)

func main() {
	failures := 0
	for _, kind := range []string{"swisstm", "tl2", "tinystm", "rstm"} {
		if err := run(kind); err != nil {
			fmt.Fprintf(os.Stderr, "coalsmoke: %s: %v\n", kind, err)
			failures++
			continue
		}
		fmt.Printf("coalsmoke: %s OK\n", kind)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "coalsmoke: %d engine(s) failed\n", failures)
		os.Exit(1)
	}
	fmt.Println("smoke-coalesce OK: coalesced commits, exactly-once feeds and oracles green on all engines")
}

// subResult is one shard tailer's complete observation: every event
// streamed until the server's drain closed the feed.
type subResult struct {
	shard  int
	events []txkvwire.FeedEvent
	err    error
}

func run(kind string) error {
	walDir, err := os.MkdirTemp("", "coalsmoke-"+kind+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{
		Engine:        harness.EngineSpec{Kind: kind, Manager: "polka"},
		Keys:          smokeKeys,
		Admin:         "127.0.0.1:0",
		WALDir:        walDir,
		WALSync:       wal.SyncGroup,
		Pipeline:      16,
		CoalesceBatch: 16,
	})
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	drained := false
	defer func() {
		if !drained {
			srv.Close()
		}
	}()
	addr := srv.Addr().String()
	shards := txkv.ConfigForKeys(smokeKeys).Shards

	// Tail every shard's feed from sequence 1, before any load: the
	// subscribers must observe the full history.
	subc := make(chan subResult, shards)
	for sh := 0; sh < shards; sh++ {
		sub, err := txkvclient.DialSubscribe(addr, sh, 1)
		if err != nil {
			return fmt.Errorf("subscribe shard %d: %w", sh, err)
		}
		go func(sh int, sub *txkvclient.Sub) {
			defer sub.Close()
			var evs []txkvwire.FeedEvent
			for {
				batch, err := sub.Next()
				if errors.Is(err, txkvclient.ErrFeedClosed) {
					subc <- subResult{shard: sh, events: evs}
					return
				}
				if err != nil {
					subc <- subResult{shard: sh, err: err}
					return
				}
				evs = append(evs, batch...)
			}
		}(sh, sub)
	}

	// Open-loop update-heavy load through the coalesced path. This run
	// sits structurally below every admission limit (2 conns × window
	// 16 in flight vs a 256-deep shard queue, no TTL, no drain), so a
	// single shed reply is a bug, not an overload.
	open, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr: addr, Mix: txkv.UpdateHeavy, Conns: 2,
		Keys: smokeKeys, Ops: opsOpen, Rate: 6000, Seed: 1,
		Pipeline: 16, LateThreshold: time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("open-loop run: %w", err)
	}
	if open.OracleErr != nil {
		return fmt.Errorf("open-loop oracle: %w", open.OracleErr)
	}
	if open.Ops != opsOpen {
		return fmt.Errorf("lost or duplicated reply: completed %d of %d open-loop ops", open.Ops, opsOpen)
	}
	if open.ErrOps != 0 {
		return fmt.Errorf("%d shed replies in a run below every admission limit", open.ErrOps)
	}
	if open.Server.CoalesceBatches == 0 || open.Server.CoalesceItems < open.Server.CoalesceBatches {
		return fmt.Errorf("coalescing never engaged: batches=%d items=%d",
			open.Server.CoalesceBatches, open.Server.CoalesceItems)
	}

	// Closed-loop transfers arm the balance-conservation oracle over
	// the same pipelined wire, interleaving the pooled multi-key path's
	// feed publications with the coalescer's.
	closed, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr: addr, Mix: txkv.TransferMix, Conns: 2,
		Keys: smokeKeys, Ops: opsClosed, Seed: 2, Pipeline: 16,
	})
	if err != nil {
		return fmt.Errorf("transfer run: %w", err)
	}
	if closed.OracleErr != nil {
		return fmt.Errorf("transfer oracle: %w", closed.OracleErr)
	}
	if closed.Ops != opsClosed {
		return fmt.Errorf("lost or duplicated reply: completed %d of %d transfer ops", closed.Ops, opsClosed)
	}

	// The store's final state, read before drain: the feed replay must
	// reproduce it exactly.
	final, err := readStore(addr)
	if err != nil {
		return err
	}

	// The batch-size histogram is the coalescer's primary observable.
	body, err := httpGet("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		return err
	}
	if v, ok := metricValue(body, "txkv_coalesce_batch_size_count"); !ok || v <= 0 {
		return fmt.Errorf("/metrics missing a positive txkv_coalesce_batch_size_count (got %v, present=%v)", v, ok)
	}

	// Drain: remaining feed events flush to the subscribers, then each
	// stream ends with a Draining frame.
	drained = true
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	timeout := time.After(10 * time.Second)
	subs := make([]subResult, 0, shards)
	for i := 0; i < shards; i++ {
		select {
		case r := <-subc:
			if r.err != nil {
				return fmt.Errorf("shard %d subscriber: %w", r.shard, r.err)
			}
			subs = append(subs, r)
		case <-timeout:
			return fmt.Errorf("stalled feed subscriber: %d of %d shards finished within 10s of drain", i, shards)
		}
	}

	// Exactly-once, in commit order: per shard the sequences must be
	// contiguous from 1, and replaying every event over the pre-filled
	// state must land exactly on the store's final state.
	state := make(map[uint64]uint64, smokeKeys)
	for k := uint64(1); k <= smokeKeys; k++ {
		state[k] = uint64(txkv.DefaultBalance)
	}
	total := 0
	for _, r := range subs {
		for i, e := range r.events {
			if e.Seq != uint64(i)+1 {
				return fmt.Errorf("shard %d: event %d has seq %d, want %d (lost, duplicated or reordered feed event)",
					r.shard, i, e.Seq, i+1)
			}
			if e.Del {
				delete(state, e.Key)
			} else {
				state[e.Key] = e.Val
			}
		}
		total += len(r.events)
	}
	if total == 0 {
		return errors.New("no feed events observed across any shard")
	}
	if len(state) != len(final) {
		return fmt.Errorf("feed replay has %d keys, store has %d", len(state), len(final))
	}
	for k, v := range final {
		if rv, ok := state[k]; !ok || rv != v {
			return fmt.Errorf("feed replay diverges from store at key %d: replay=(%d,%v) store=%d", k, rv, ok, v)
		}
	}
	return nil
}

// readStore fetches every pre-filled key's current value over a plain
// synchronous connection.
func readStore(addr string) (map[uint64]uint64, error) {
	c, err := txkvclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	final := make(map[uint64]uint64, smokeKeys)
	for k := uint64(1); k <= smokeKeys; k++ {
		v, found, err := c.Get(k)
		if err != nil {
			return nil, fmt.Errorf("final read of key %d: %w", k, err)
		}
		if found {
			final[k] = v
		}
	}
	return final, nil
}

// metricValue finds an unlabelled series by name prefix and parses its
// value.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || fields[0] != name {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err == nil {
			return v, true
		}
	}
	return 0, false
}

func httpGet(url string) (string, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}
