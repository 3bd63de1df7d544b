package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its own calls into the
// program's layers; the program carries no benchmark instrumentation.
//
// Timings only ever flow from the program into the recorder, never back:
// a spanNode holds no time and an instance holds no recorder, so no
// measured value can reach an input or a seed. The repository's detflow
// lint rule checks exactly that.

// spanNode is one span's place in the causal tree. Nodes carry no
// timings; the recorder keeps those.
type spanNode struct {
	parent   *spanNode
	op       int
	workload string
	layer    string
	name     string
}

// span is one finished span as written to the trace file.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for an op's root span
	Op       int    `json:"op"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder's epoch
	End      int64  `json:"end_ns"`
}

// recorder keeps every span of the traced pass in memory; they are
// written out when the benchmark ends. It is safe for concurrent use:
// montecarlo workers and HTTP handlers record from many goroutines.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	nodes []*spanNode
	start []int64
	end   []int64
	index map[*spanNode]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), index: map[*spanNode]int{}}
}

type spanKey struct{}

// nodeOf returns the span a context carries, or nil.
func nodeOf(ctx context.Context) *spanNode {
	n, _ := ctx.Value(spanKey{}).(*spanNode)
	return n
}

// begin opens a span under parent (nil for an op's root) and labels the
// calling goroutine with its workload and layer, so a CPU profile of the
// traced pass splits the same way. The op and workload are inherited
// from parent unless it is nil.
func (r *recorder) begin(parent *spanNode, op int, workload, layer, name string) *spanNode {
	n := &spanNode{parent: parent, op: op, workload: workload, layer: layer, name: name}
	if parent != nil {
		n.op, n.workload = parent.op, parent.workload
	}
	setLabels(n)
	r.mu.Lock()
	now := time.Since(r.epoch).Nanoseconds() // under the lock: IDs follow start order
	r.index[n] = len(r.nodes)
	r.nodes = append(r.nodes, n)
	r.start = append(r.start, now)
	r.end = append(r.end, now)
	r.mu.Unlock()
	return n
}

// finish closes span n and restores its parent's goroutine labels.
func (r *recorder) finish(n *spanNode) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.end[r.index[n]] = now
	r.mu.Unlock()
	setLabels(n.parent)
}

// op opens the root span of op k of a workload; the returned context
// carries it.
func (r *recorder) op(ctx context.Context, workload string, k int) (context.Context, *spanNode) {
	n := r.begin(nil, k, workload, "op", workload)
	return context.WithValue(ctx, spanKey{}, n), n
}

// child opens a span under the one ctx carries; the returned context
// carries the new span.
func (r *recorder) child(ctx context.Context, layer, name string) (context.Context, *spanNode) {
	n := r.begin(nodeOf(ctx), 0, "", layer, name)
	return context.WithValue(ctx, spanKey{}, n), n
}

// setLabels sets the calling goroutine's pprof labels to n's workload
// and layer, or clears them for nil.
func setLabels(n *spanNode) {
	ctx := context.Background()
	if n != nil {
		ctx = pprof.WithLabels(ctx, pprof.Labels("workload", n.workload, "layer", n.layer))
	}
	pprof.SetGoroutineLabels(ctx)
}

// spans returns the finished spans recorded since mark (a previous
// count), numbered in start order.
func (r *recorder) spans(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.nodes)-mark)
	for i := mark; i < len(r.nodes); i++ {
		n := r.nodes[i]
		s := span{
			ID: i + 1, Op: n.op, Workload: n.workload, Layer: n.layer, Name: n.name,
			Start: r.start[i], End: r.end[i],
		}
		if n.parent != nil {
			s.Parent = r.index[n.parent] + 1
		}
		out = append(out, s)
	}
	return out
}

// count returns how many spans have been opened.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.nodes)
}

// selfTimes returns, per layer, the summed self time in seconds of the
// given spans: each span's duration minus the part of its interval
// covered by the union of its children. Children may overlap (cells of
// one sweep run on two workers), so coverage is an interval union.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		self[s.Layer] += float64(d) / 1e9
	}
	return self
}

// durations returns the durations in seconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// covered returns the nanoseconds of [p.Start, p.End] covered by the
// union of the children's intervals.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// chromeEvent is one Chrome trace_event; Perfetto and chrome://tracing
// both read a JSON object with a traceEvents array of them.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // µs
	Dur  float64        `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// lanes assigns every span a lane of its op, so that the spans of one
// lane nest strictly, as a trace viewer's thread track requires: a span
// joins its parent's lane unless a sibling still open there overlaps it
// (cells on two workers, concurrent requests), and then takes the first
// lane free at its start. spans must be in start order.
func lanes(spans []span) []int {
	type opKey struct {
		workload string
		op       int
	}
	lane := make([]int, len(spans))
	pos := map[int]int{}        // span ID → index in spans
	open := map[opKey][][]int{} // per op and lane: stack of open span indices
	for i, s := range spans {
		pos[s.ID] = i
		stacks := open[opKey{s.Workload, s.Op}]
		for l, st := range stacks {
			for len(st) > 0 && spans[st[len(st)-1]].End <= s.Start {
				st = st[:len(st)-1]
			}
			stacks[l] = st
		}
		l := -1
		if p, ok := pos[s.Parent]; ok && s.Parent != 0 {
			if st := stacks[lane[p]]; len(st) > 0 && st[len(st)-1] == p {
				l = lane[p]
			}
		}
		for j := 0; l < 0 && j < len(stacks); j++ {
			if len(stacks[j]) == 0 {
				l = j
			}
		}
		if l < 0 {
			l = len(stacks)
			stacks = append(stacks, nil)
		}
		stacks[l] = append(stacks[l], i)
		open[opKey{s.Workload, s.Op}] = stacks
		lane[i] = l
	}
	return lane
}

// writeChrome writes spans as Chrome trace_event JSON together with the
// per-workload, per-layer self-time table. Each workload is one process
// and each lane of an op one thread, so an op's layer calls nest
// visually. spans must be in start order.
func writeChrome(w io.Writer, spans []span, selfTable map[string]map[string]float64) error {
	type track struct {
		workload string
		op, lane int
	}
	pids := map[string]int{}
	tids := map[track]int{}
	var meta, events []chromeEvent
	for i, l := range lanes(spans) {
		s := spans[i]
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
			meta = append(meta, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": s.Workload}})
		}
		t := track{s.Workload, s.Op, l}
		tid, ok := tids[t]
		if !ok {
			tid = len(tids) + 1
			tids[t] = tid
			meta = append(meta, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("op %d lane %d", s.Op, l)}})
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: pid, Tid: tid,
			Args: map[string]any{"op": s.Op, "id": s.ID, "parent": s.Parent},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []chromeEvent                 `json:"traceEvents"`
		DisplayTimeUnit string                        `json:"displayTimeUnit"`
		SelfSeconds     map[string]map[string]float64 `json:"self_seconds_by_workload_and_layer"`
	}{append(meta, events...), "ms", selfTable})
}
