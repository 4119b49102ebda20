package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// StageMetric is the histogram family that StartStage spans observe
// into, labeled by stage name. The server's JSON /v1/metrics "stages"
// section and the Prometheus exposition both read from it.
const StageMetric = "dpcubed_stage_duration_seconds"

// StageHistogram returns the per-stage duration histogram for stage
// in reg — the single registration point shared by trace spans and
// by exposition code that enumerates known stages.
func StageHistogram(reg *Registry, stage string) *Histogram {
	return reg.Histogram(StageMetric, "Engine pipeline stage wall time, by stage.",
		LatencyBuckets(), Label{Key: "stage", Value: stage})
}

// Trace is one request's span tree. The server builds one per
// release-shaped request and installs it in the context; the engine
// opens spans against it. A nil *Trace is fully inert: every method on
// it and on the nil spans it hands out is a no-op that allocates
// nothing, so un-instrumented callers pay nothing.
//
// Spans form a tree under Root. Stage spans (StartStage) are always
// recorded when a trace is present and additionally observe their
// duration into the registry's stage histogram; detail spans
// (StartDetail) — per block, per marginal — are recorded only when the
// trace was built with detail on, so the span count stays O(stages)
// unless the caller asked for the full breakdown with "debug_timing".
type Trace struct {
	reg    *Registry
	detail bool
	mu     sync.Mutex
	root   *Span
}

// Span is one timed region inside a Trace. Durations come from the
// monotonic clock carried by time.Time. Methods are nil-safe.
type Span struct {
	tr       *Trace
	name     string
	stage    string
	start    time.Time
	duration time.Duration
	attrs    []spanAttr
	children []*Span
}

type spanAttr struct {
	key, value string
}

// NewTrace starts a trace whose root span is named name. Stage spans
// observe into reg's stage histogram; detail turns on sub-span
// recording (the "debug_timing" request flag).
func NewTrace(reg *Registry, name string, detail bool) *Trace {
	t := &Trace{reg: reg, detail: detail}
	t.root = &Span{tr: t, name: name, start: time.Now()}
	return t
}

// Root returns the trace's root span, nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Detail reports whether detail spans are recorded; false on nil.
func (t *Trace) Detail() bool { return t != nil && t.detail }

func (t *Trace) newChild(parent *Span, name, stage string) *Span {
	s := &Span{tr: t, name: name, stage: stage, start: time.Now()}
	t.mu.Lock()
	parent.children = append(parent.children, s)
	t.mu.Unlock()
	return s
}

// Start opens a child span. Nil-safe: returns nil on a nil receiver.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newChild(s, name, "")
}

// StartStage opens a child span that, on End, also observes its
// duration into the registry's stage duration histogram under the
// given stage label. Nil-safe.
func (s *Span) StartStage(stage string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newChild(s, stage, stage)
}

// StartDetail opens a child span only when the trace is recording
// detail; otherwise (including on nil) it returns nil, and the
// caller's Annotate/End calls on the nil result cost nothing.
func (s *Span) StartDetail(name string) *Span {
	if s == nil || !s.tr.detail {
		return nil
	}
	return s.tr.newChild(s, name, "")
}

// End closes the span, fixing its duration; a stage span also
// observes into the stage histogram. Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil || s.duration != 0 {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = 1 // monotonic clamp: an ended span is never zero, so End is idempotent
	}
	s.tr.mu.Lock()
	if s.duration == 0 {
		s.duration = d
	}
	s.tr.mu.Unlock()
	if s.stage != "" && s.tr.reg != nil {
		StageHistogram(s.tr.reg, s.stage).Observe(d.Seconds())
	}
}

// Annotate attaches a key/value attribute to the span. Nil-safe.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key, value})
	s.tr.mu.Unlock()
}

// AnnotateInt attaches an integer attribute. Nil-safe, and the
// conversion happens only on live spans so nil calls stay alloc-free.
func (s *Span) AnnotateInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Annotate(key, strconv.FormatInt(v, 10))
}

// SpanJSON is the wire form of one span for the "timing" section of
// a debug_timing response.
type SpanJSON struct {
	Name       string            `json:"name"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanJSON        `json:"spans,omitempty"`
}

// Tree closes the root span and returns the whole trace as a
// JSON-marshalable span tree. Call once, when building the response.
func (t *Trace) Tree() SpanJSON {
	if t == nil {
		return SpanJSON{}
	}
	t.root.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.json()
}

func (s *Span) json() SpanJSON {
	d := s.duration
	if d == 0 {
		d = time.Since(s.start) // un-ended child: report elapsed so far
	}
	out := SpanJSON{Name: s.name, DurationMS: float64(d) / float64(time.Millisecond)}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.value
		}
	}
	for _, c := range s.children {
		out.Spans = append(out.Spans, c.json())
	}
	return out
}

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
	requestIDKey
)

// ContextWithTrace returns ctx carrying tr.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey, tr)
}

// TraceFrom returns the trace carried by ctx, or nil. The lookup is
// allocation-free, so hot paths may call it unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// ContextWithSpan returns ctx carrying sp, for handing a stage span
// down into the stage implementation that owns the inner loops.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFrom returns the span carried by ctx, or nil. Allocation-free.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// ContextWithRequestID returns ctx carrying the request ID.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-character request ID from
// crypto/rand (falling back to the clock if the kernel source fails,
// which it does not on any supported platform).
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}
