package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each
// layer's public functions, kept in memory, and written out when the
// run ends. A span's parent is the span that caused it: every
// per-layer span of one operation hangs off that operation's root span.

// spanName identifies what a span timed.
type spanName uint8

const (
	spOp spanName = iota // one logical operation (root)
	spWireEncode
	spWireDecode
	spClientGet
	spClientPut
	spClientCAS
	spClientScan
	spB7ShortRead
	spB7ShortUpdate
	spB7ReadComponent
	spB7UpdateComponent
	spB7QueryDates
	spB7LongTraversal
	spB7LongTraversalUpdate
	spB7StructureMod
	spanNameCount
)

var spanNames = [spanNameCount]string{
	"op",
	"txkvwire.encode", "txkvwire.decode",
	"txkvclient.get", "txkvclient.put", "txkvclient.cas", "txkvclient.scan",
	"bench7.short_read", "bench7.short_update", "bench7.read_component",
	"bench7.update_component", "bench7.query_dates", "bench7.long_traversal",
	"bench7.long_traversal_update", "bench7.structure_mod",
}

// span is one timed call.
type span struct {
	id, parent uint64
	name       spanName
	start, dur int64 // ns since the run's trace epoch
}

// spanBuf is one goroutine's span log. A nil *spanBuf records nothing,
// so the untraced path runs the same code.
type spanBuf struct {
	epoch time.Time
	owner uint64
	seq   uint64
	spans []span
}

// newSpanBuf starts a span log; owner makes its span ids unique within
// the run.
func newSpanBuf(epoch time.Time, owner int) *spanBuf {
	return &spanBuf{epoch: epoch, owner: uint64(owner)}
}

// newID reserves a span id, for a root span recorded after its children.
func (b *spanBuf) newID() uint64 {
	if b == nil {
		return 0
	}
	b.seq++
	return b.owner<<40 | b.seq
}

// add logs span id from t0 to t1.
func (b *spanBuf) add(id, parent uint64, name spanName, t0, t1 time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		id: id, parent: parent, name: name,
		start: t0.Sub(b.epoch).Nanoseconds(), dur: t1.Sub(t0).Nanoseconds(),
	})
}

// record logs a span under a fresh id.
func (b *spanBuf) record(name spanName, parent uint64, t0, t1 time.Time) {
	b.add(b.newID(), parent, name, t0, t1)
}

// durations groups the recorded span durations by name.
func durations(bufs []*spanBuf) [spanNameCount][]int64 {
	var out [spanNameCount][]int64
	for _, b := range bufs {
		for _, s := range b.spans {
			out[s.name] = append(out[s.name], s.dur)
		}
	}
	return out
}

// meanOf is the mean of a duration list (0 when empty).
func meanOf(d []int64) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum int64
	for _, v := range d {
		sum += v
	}
	return float64(sum) / float64(len(d))
}

// writeSpans writes every span as CSV (id,parent,name,start_ns,dur_ns).
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("id,parent,name,start_ns,dur_ns\n")
	var line []byte
	for _, b := range bufs {
		for _, s := range b.spans {
			line = strconv.AppendUint(line[:0], s.id, 10)
			line = append(line, ',')
			line = strconv.AppendUint(line, s.parent, 10)
			line = append(line, ',')
			line = append(line, spanNames[s.name]...)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.dur, 10)
			line = append(line, '\n')
			w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
