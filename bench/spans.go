package main

import (
	"bufio"
	"fmt"
	"os"
)

// spanWriter writes the harness's spans as JSON lines when the run ends;
// until then they live in the runner's and the disk wrapper's memory.
type spanWriter struct {
	f *os.File
	w *bufio.Writer
}

func newSpanWriter(f *os.File) *spanWriter {
	return &spanWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}
}

// span writes one span. Spans of one token carry its ts as id and have
// the token as parent; disk spans belong to no token (id -1).
func (s *spanWriter) span(name string, start, end, id int64) {
	parent := "token"
	if id < 0 {
		parent = "system"
	}
	fmt.Fprintf(s.w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"id\":%d,\"parent\":%q}\n", name, start, end, id, parent)
}

func (s *spanWriter) close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
