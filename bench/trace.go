package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one (0 = root).
type span struct {
	id, parent int32
	req        int32
	name       string
	start, end int64 // ns since the tracer's epoch
}

// tracer collects spans in memory. One tracer belongs to one goroutine;
// a nil tracer records nothing, which is how the untraced run pays no
// tracing cost beyond a nil check.
type tracer struct {
	section string
	epoch   time.Time
	spans   []span
}

func newTracer(section string, epoch time.Time, capacity int) *tracer {
	return &tracer{section: section, epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, req int, parent int32) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, req: int32(req), name: name, start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.end = int64(time.Since(t.epoch))
	return time.Duration(s.end - s.start)
}

// traceLog gathers every tracer of the process for the exit-time dump.
var traceLog []*tracer

// writeTrace dumps all collected spans to bench/out/trace.json.
func writeTrace(root string) (string, error) {
	if len(traceLog) == 0 {
		return "", nil
	}
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, "{\"unit\":\"ns\",\"sections\":[")
	for i, t := range traceLog {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"section\":%q,\"spans\":[", t.section)
		for j := range t.spans {
			s := &t.spans[j]
			if j > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start\":%d,\"end\":%d}",
				s.id, s.parent, s.req, s.name, s.start, s.end)
		}
		fmt.Fprint(w, "]}")
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
