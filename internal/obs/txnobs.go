package obs

import "sync"

// MaxShards mirrors stm.MaxThreads: one shard per engine thread id.
// (obs deliberately has no repo-internal imports; the engines assert
// the correspondence where they wire a TxnObs in.)
const MaxShards = 64

// TxnShard holds one engine thread's per-transaction distributions.
// Single writer (the owning engine thread); read only while the
// thread is quiescent — the same contract as stm.Thread.Stats.
type TxnShard struct {
	// Retries is the per-committed-transaction retry count: how many
	// aborted attempts preceded the commit (0 for first-try commits).
	Retries Hist
	// ReadSet and WriteSet are the read-/write-set sizes (entries
	// logged) of committed transactions. ReadSet counts log entries,
	// not distinct stripes: SwissTM and TinySTM log a non-consecutive
	// re-read of a stripe again (DESIGN.md §7.1). Engines that keep
	// no read log on a given path (TL2 declared read-only) record 0.
	ReadSet  Hist
	WriteSet Hist
}

// RecordCommit records one committed transaction on the hot path:
// nine plain increments plus bucket math, no atomics, no allocation.
func (s *TxnShard) RecordCommit(retries, readSet, writeSet uint64) {
	s.Retries.Record(retries)
	s.ReadSet.Record(readSet)
	s.WriteSet.Record(writeSet)
}

// TxnObs is the per-engine-instance collection point for TxnShards:
// one shard per thread id, allocated lazily at thread creation so
// memory scales with threads actually used.
type TxnObs struct {
	mu     sync.Mutex
	shards [MaxShards]*TxnShard
}

// NewTxnObs returns an empty TxnObs.
func NewTxnObs() *TxnObs { return &TxnObs{} }

// Shard returns thread id's shard, allocating it on first use. Called
// from engine NewThread (not the hot path). Panics on an out-of-range
// id, mirroring the engines' own thread-id checks.
func (o *TxnObs) Shard(id int) *TxnShard {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.shards[id] == nil {
		o.shards[id] = new(TxnShard)
	}
	return o.shards[id]
}

// TxnSummary is the fold of all shards of one TxnObs.
type TxnSummary struct {
	Retries  Hist
	ReadSet  Hist
	WriteSet Hist
}

// Merged folds every allocated shard into one summary. The caller
// must have quiesced the owning threads (e.g. the server drains its
// worker pool first, exactly as it does for stm stats).
func (o *TxnObs) Merged() TxnSummary {
	o.mu.Lock()
	shards := o.shards
	o.mu.Unlock()
	var m TxnSummary
	for _, s := range shards {
		if s == nil {
			continue
		}
		m.Retries.Add(&s.Retries)
		m.ReadSet.Add(&s.ReadSet)
		m.WriteSet.Add(&s.WriteSet)
	}
	return m
}
