package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The server's histograms are read from outside through its admin
// endpoint's /metrics page (Prometheus text: cumulative octave buckets
// plus _sum and _count), scraped before and after the measured window
// and diffed.

// promHist is one histogram series: cumulative counts per upper bound.
type promHist struct {
	cum        map[float64]float64 // le → cumulative count (+Inf included)
	sum, count float64
}

// scrape maps a series key, name{labels without le}, to its histogram.
type scrape map[string]*promHist

var httpClient = &http.Client{Timeout: 10 * time.Second}

// scrapeMetrics fetches and parses the admin endpoint's histograms.
func scrapeMetrics(adminAddr string) (scrape, error) {
	resp, err := httpClient.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	get := func(key string) *promHist {
		h, ok := out[key]
		if !ok {
			h = &promHist{cum: map[float64]float64{}}
			out[key] = h
		}
		return h
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.Trim(name[i:], "{}")
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			var le string
			var rest []string
			for _, kv := range strings.Split(labels, ",") {
				if v, ok := strings.CutPrefix(kv, `le="`); ok {
					le = strings.TrimSuffix(v, `"`)
				} else if kv != "" {
					rest = append(rest, kv)
				}
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return nil, fmt.Errorf("scrape: bad le in %q", line)
				}
			}
			get(seriesKey(strings.TrimSuffix(name, "_bucket"), strings.Join(rest, ","))).cum[bound] = val
		case strings.HasSuffix(name, "_sum"):
			get(seriesKey(strings.TrimSuffix(name, "_sum"), labels)).sum = val
		case strings.HasSuffix(name, "_count"):
			get(seriesKey(strings.TrimSuffix(name, "_count"), labels)).count = val
		}
	}
	return out, sc.Err()
}

func seriesKey(name, labels string) string { return name + "{" + labels + "}" }

// cumAt is the cumulative count at bound le. The exposition lists
// bounds from the bottom up and stops once every observation is
// covered, so a bound it does not list holds the whole count.
func (h *promHist) cumAt(le float64) float64 {
	if v, ok := h.cum[le]; ok {
		return v
	}
	return h.count
}

// windowHist sums the series selected by match of after minus before:
// the observations made inside the measured window.
func windowHist(before, after scrape, match func(key string) bool) *promHist {
	out := &promHist{cum: map[float64]float64{}}
	var keys []string
	for key, a := range after {
		if !match(key) {
			continue
		}
		keys = append(keys, key)
		for le := range a.cum {
			out.cum[le] = 0
		}
	}
	empty := &promHist{cum: map[float64]float64{}}
	for _, key := range keys {
		a, b := after[key], before[key]
		if b == nil {
			b = empty
		}
		out.sum += a.sum - b.sum
		out.count += a.count - b.count
		for le := range out.cum {
			out.cum[le] += a.cumAt(le) - b.cumAt(le)
		}
	}
	return out
}

// mean is the window's mean observation.
func (h *promHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile interpolates the q-quantile linearly inside the bucket that
// holds it; octave buckets bound the error at 2×.
func (h *promHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	les := make([]float64, 0, len(h.cum))
	for le := range h.cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	target := q * h.count
	prevLe, prevCum := 0.0, 0.0
	for _, le := range les {
		c := h.cum[le]
		if c >= target && c > prevCum {
			if math.IsInf(le, 1) {
				return prevLe
			}
			return prevLe + (le-prevLe)*(target-prevCum)/(c-prevCum)
		}
		prevLe, prevCum = le, c
	}
	return prevLe
}

// seriesMatch selects series by metric name and required label pairs
// (each given as key="value").
func seriesMatch(name string, labels ...string) func(string) bool {
	return func(key string) bool {
		if !strings.HasPrefix(key, name+"{") {
			return false
		}
		for _, l := range labels {
			if !strings.Contains(key, l) {
				return false
			}
		}
		return true
	}
}
