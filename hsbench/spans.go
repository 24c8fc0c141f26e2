package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"

	"hidestore/internal/obs"
)

// recorder keeps the traced run's spans in memory: one trace per
// operation (a tracer over its own buffer, so each operation is one
// segment of the JSONL file cmd/tracereport reads), rooted at the
// operation's span. Wrappers start their spans under whatever operation
// is current; a call outside any operation records nothing.
type recorder struct {
	cur  atomic.Pointer[opTrace]
	done []*opTrace
}

type opTrace struct {
	kind   string
	buf    bytes.Buffer
	tracer *obs.Tracer
	root   *obs.Span
}

func (r *recorder) begin(kind string) *opTrace {
	op := &opTrace{kind: kind}
	op.tracer = obs.NewTracer(&op.buf)
	op.root = op.tracer.Start(kind, nil)
	r.cur.Store(op)
	return op
}

// end closes the operation's trace. Every wrapped call has returned by
// then: the engines wait for their worker goroutines before returning.
func (r *recorder) end(op *opTrace) error {
	r.cur.Store(nil)
	op.root.End()
	if err := op.tracer.Close(); err != nil {
		return fmt.Errorf("trace %s: %w", op.kind, err)
	}
	r.done = append(r.done, op)
	return nil
}

// span starts a span for a wrapped call under the current operation.
func (r *recorder) span(name string) *obs.Span {
	op := r.cur.Load()
	if op == nil {
		return nil
	}
	return op.tracer.Start(name, op.root)
}

// child starts a span under parent in the current operation's trace.
func (r *recorder) child(name string, parent *obs.Span) *obs.Span {
	op := r.cur.Load()
	if op == nil {
		return nil
	}
	return op.tracer.Start(name, parent)
}

// jsonl concatenates every recorded trace.
func (r *recorder) jsonl() []byte {
	var out bytes.Buffer
	for _, op := range r.done {
		out.Write(op.buf.Bytes())
	}
	return out.Bytes()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n     int
	busy  int64 // summed span durations, ns
	self  int64 // summed durations minus child coverage, ns
	bytes int64 // summed "bytes" attributes
}

// budget is the per-span-name aggregate of the recorded traces, plus
// the part of each operation kind's wall time no layer span covers.
type budget struct {
	layers       map[string]*layerStat
	unattributed map[string]int64
}

// analyze parses the recorded traces. A span's self time is its
// duration minus the part of its interval its children cover; an
// operation's unattributed time is the self time of its root span.
// Children that overlap each other (a prefetch worker's container read
// running while the restore policy waits) count once in the coverage,
// so root self time plus the union of layer spans is the wall time.
func (r *recorder) analyze() (budget, error) {
	b := budget{layers: map[string]*layerStat{}, unattributed: map[string]int64{}}
	for _, op := range r.done {
		recs, err := parseTrace(op.buf.Bytes())
		if err != nil {
			return b, fmt.Errorf("trace %s: %w", op.kind, err)
		}
		children := map[uint64][]obs.TraceRecord{}
		for _, rec := range recs {
			if rec.Parent != 0 {
				children[rec.Parent] = append(children[rec.Parent], rec)
			}
		}
		for _, rec := range recs {
			self := rec.Dur - coverage(rec, children[rec.ID])
			if rec.Parent == 0 {
				b.unattributed[op.kind] += self
				continue
			}
			// Each span counts under its name and, for per-operation
			// ratios, under "<operation>:<name>".
			for _, key := range []string{rec.Name, op.kind + ":" + rec.Name} {
				st := b.layers[key]
				if st == nil {
					st = &layerStat{}
					b.layers[key] = st
				}
				st.n++
				st.busy += rec.Dur
				st.self += self
				st.bytes += rec.Attrs["bytes"]
			}
		}
	}
	return b, nil
}

func (b budget) layer(name string) layerStat {
	if st := b.layers[name]; st != nil {
		return *st
	}
	return layerStat{}
}

// parseTrace reads one operation's JSONL, dropping the open and close
// anchors.
func parseTrace(data []byte) ([]obs.TraceRecord, error) {
	var recs []obs.TraceRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec obs.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		if rec.Name == "trace.open" || rec.Name == "trace.close" {
			continue
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent obs.TraceRecord, kids []obs.TraceRecord) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	pEnd := parent.Start + parent.Dur
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.Start+k.Dur, pEnd)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}
