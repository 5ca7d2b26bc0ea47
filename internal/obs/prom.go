package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the Prometheus text-format (version 0.0.4) exposition
// encoder: a tiny registry of metric families — counters and gauges
// collected from closures, histograms exported live — rendered without
// any client-library dependency. The encoder is what /v1/metrics
// serves; scripts/check_metrics.sh validates its output shape in CI.

// ContentType is the Content-Type of the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Sample is one series of a counter or gauge family: rendered label
// pairs (or nil) and the value.
type Sample struct {
	// Labels are "key=value" pairs, rendered in the given order.
	Labels []string
	Value  float64
}

// L builds one label pair for a Sample.
func L(key, value string) string { return key + "=" + value }

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one registered metric family.
type family struct {
	name    string
	help    string
	kind    familyKind
	collect func() []Sample // counter/gauge
	hist    *Histogram      // single histogram
	vec     *HistogramVec   // labeled histogram family
}

// Registry holds metric families and renders them in the Prometheus
// text format. Registration happens once at startup; Write takes a
// snapshot of every family, so it is safe against concurrent writers.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{seen: map[string]bool{}} }

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic("obs: duplicate metric family " + f.name)
	}
	r.seen[f.name] = true
	r.fams = append(r.fams, f)
}

// RegisterCounterFunc registers a counter family whose samples are
// collected at scrape time. Counter values must be monotone.
func (r *Registry) RegisterCounterFunc(name, help string, collect func() []Sample) {
	r.add(&family{name: name, help: help, kind: kindCounter, collect: collect})
}

// RegisterGaugeFunc registers a gauge family collected at scrape time.
func (r *Registry) RegisterGaugeFunc(name, help string, collect func() []Sample) {
	r.add(&family{name: name, help: help, kind: kindGauge, collect: collect})
}

// RegisterHistogram registers a single (unlabeled) histogram.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.add(&family{name: name, help: help, kind: kindHistogram, hist: h})
}

// RegisterHistogramVec registers a labeled histogram family.
func (r *Registry) RegisterHistogramVec(name, help string, v *HistogramVec) {
	r.add(&family{name: name, help: help, kind: kindHistogram, vec: v})
}

// WritePrometheus renders every family. Families appear in
// registration order; series within a family are sorted by label so
// the exposition is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		switch f.kind {
		case kindCounter, kindGauge:
			samples := f.collect()
			lines := make([]string, 0, len(samples))
			for _, s := range samples {
				lines = append(lines, f.name+renderLabels(s.Labels)+" "+formatValue(s.Value))
			}
			sort.Strings(lines)
			for _, l := range lines {
				b.WriteString(l)
				b.WriteByte('\n')
			}
		case kindHistogram:
			if f.hist != nil {
				writeHistogram(&b, f.name, nil, f.hist.Snapshot())
			}
			if f.vec != nil {
				for _, ls := range f.vec.Snapshots() {
					writeHistogram(&b, f.name, []string{L(f.vec.Label(), ls.Value)}, ls.Snapshot)
				}
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series set: cumulative
// _bucket{le=…} lines, _sum (seconds) and _count.
func writeHistogram(b *strings.Builder, name string, labels []string, s HistogramSnapshot) {
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := append(append([]string(nil), labels...), L("le", formatBound(bound)))
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(le), cum)
	}
	le := append(append([]string(nil), labels...), L("le", "+Inf"))
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(le), s.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatValue(float64(s.SumNs)/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), s.Count)
}

// renderLabels renders "k=v" pairs as {k="v",…}, escaping values per
// the exposition format; empty input renders nothing.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, v, _ := strings.Cut(p, "=")
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatBound renders a bucket edge compactly ("0.001", not
// "0.001000"); the same text is emitted every scrape, which Prometheus
// requires for bucket identity.
func formatBound(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func formatValue(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
