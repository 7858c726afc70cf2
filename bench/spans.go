package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call, in nanoseconds since the recorder's origin.
type span struct {
	name       string
	parent     int // index into spans.list, -1 for a root
	start, end int64
}

// spans records nested spans in memory. A nil *spans records nothing, so
// timed reps pass nil and pay only a nil check.
type spans struct {
	origin time.Time
	list   []span
	open   int // innermost unfinished span, -1 when none
}

func newSpans(capacity int) *spans {
	return &spans{origin: time.Now(), list: make([]span, 0, capacity), open: -1}
}

func (s *spans) now() int64 { return int64(time.Since(s.origin)) }

// begin opens a span under the innermost open one and returns its closer.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	i := s.push(name)
	return func() { s.pop(i) }
}

func (s *spans) push(name string) int {
	s.list = append(s.list, span{name: name, parent: s.open, start: s.now()})
	s.open = len(s.list) - 1
	return s.open
}

func (s *spans) pop(i int) {
	s.list[i].end = s.now()
	s.open = s.list[i].parent
}

// selfTimes returns each span's duration minus what its children cover.
// Children of one span run one after another, never overlapping.
func selfTimes(list []span) []int64 {
	self := make([]int64, len(list))
	for i, s := range list {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func writeChromeTrace(path string, list []span) error {
	events := make([]chromeEvent, len(list))
	for i, s := range list {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
