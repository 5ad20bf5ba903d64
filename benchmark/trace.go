package main

// Measurement from outside the program: spans recorded around calls into
// the public facade, the program's own metric snapshot (WithMetrics,
// Prometheus text), and process counters from the OS.

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one timed call. Spans of one operation (a scan run, a
// registry round) share Trace; Parent is 0 for an operation's root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay no tracing cost.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start).Seconds()
}

// write stores the spans as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseProm reads the counter, gauge and histogram _sum/_count samples
// of a Prometheus text snapshot. Bucket samples are skipped.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// procSample is a point-in-time reading of the process counters.
type procSample struct {
	cpu     float64 // user + system CPU seconds
	gcPause float64 // cumulative GC stop-the-world pause seconds
	syscw   float64 // write system calls (/proc/self/io)
	wchar   float64 // bytes passed to write calls (/proc/self/io)
}

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPause = time.Duration(ms.PauseTotalNs).Seconds()
	if data, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			name, val, _ := strings.Cut(line, ": ")
			v, _ := strconv.ParseFloat(val, 64)
			switch name {
			case "syscw":
				s.syscw = v
			case "wchar":
				s.wchar = v
			}
		}
	}
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs, the mean of the middle two for an even count (0 for
// none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// sum of xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(rank, 0)]
}

// medians reduces per-operation samples to their per-name medians.
func medians(samples []map[string]float64) map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			byName[k] = append(byName[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range byName {
		out[k] = median(vs)
	}
	return out
}
