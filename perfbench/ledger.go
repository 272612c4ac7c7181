package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// series is one metric's repeats within a run: setups, restarts, or
// the measured window's sub-windows. Its reported value is the median.
type series struct {
	unit string
	vals []float64
}

// ledger collects a run's metrics in insertion order.
type ledger struct {
	names []string
	m     map[string]*series
}

func newLedger() *ledger { return &ledger{m: map[string]*series{}} }

// add appends repeats to a metric, creating it on first use.
func (l *ledger) add(name, unit string, vals ...float64) {
	s, ok := l.m[name]
	if !ok {
		s = &series{unit: unit}
		l.m[name] = s
		l.names = append(l.names, name)
	}
	s.vals = append(s.vals, vals...)
}

// dispersion is a metric's spread across its repeats.
type dispersion struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(unit string, vals []float64) dispersion {
	d := dispersion{Unit: unit, N: len(vals)}
	if len(vals) == 0 {
		return d
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	d.Median = quantileSorted(s, 0.5)
	d.Q1 = quantileSorted(s, 0.25)
	d.Q3 = quantileSorted(s, 0.75)
	d.Min, d.Max = s[0], s[len(s)-1]
	return d
}

// quantileSorted interpolates linearly between the closest ranks of an
// ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// pctNs returns the q-quantile of latencies in nanoseconds (nearest
// rank), sorting lat in place.
func pctNs(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(math.Ceil(q*float64(len(lat)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(lat[idx])
}

// metricOut is one metric of the final result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report is the full record of one run: every metric with its
// dispersion, the checks, and the host it ran on.
type report struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Host      map[string]string     `json:"host"`
	Checks    []string              `json:"checks"`
	Failures  []string              `json:"failures,omitempty"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]dispersion `json:"metrics"`
	Spans     string                `json:"spans,omitempty"`
}

// emit reduces the ledger to the result line over the named metrics,
// printing the full report line first. A named metric the run did not
// produce is reported as 0: it does not apply to this workload.
func (l *ledger) emit(rep *report, want []metricSpec) (result, error) {
	rep.Metrics = map[string]dispersion{}
	res := result{
		Correct:   len(rep.Failures) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricOut{},
	}
	for _, name := range l.names {
		s := l.m[name]
		rep.Metrics[name] = summarize(s.unit, s.vals)
	}
	for _, w := range want {
		d, ok := rep.Metrics[w.name]
		if ok && d.Unit != w.unit {
			return res, fmt.Errorf("metric %s measured in %s, declared in %s", w.name, d.Unit, w.unit)
		}
		res.Metrics[w.name] = metricOut{Value: d.Median, Unit: w.unit}
	}
	return res, nil
}

// metricSpec names one metric the result line must carry.
type metricSpec struct{ name, unit string }

// hostFingerprint records what the numbers were measured on.
func hostFingerprint() map[string]string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	h := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     strings.TrimSpace(string(kernel)),
	}
	if cpu := cpuModel(); cpu != "" {
		h["cpu"] = cpu
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// addPeakRSS records peak_rss_mb.
func (c *runCtx) addPeakRSS() error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	c.l.add("peak_rss_mb", "MiB", rss)
	return nil
}

// settle precedes each timed set-up or restart. The pause lets the
// previous instance's goroutines exit and spaces the samples apart, so
// their median spans the shared host's sub-second swings in speed
// instead of one moment of them; the collection keeps garbage
// collection out of the timed section.
func settle() {
	time.Sleep(250 * time.Millisecond)
	runtime.GC()
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
