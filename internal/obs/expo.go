package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes every registered family in the Prometheus text
// exposition format (version 0.0.4): families in registration order,
// series in creation order, so output is deterministic and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	collect := append([]func(){}, r.collect...)
	r.mu.Unlock()
	for _, f := range collect {
		f()
	}
	for _, f := range families {
		f.write(bw)
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	typ := f.typ
	if typ == "floatgauge" {
		typ = "gauge" // exposition has one gauge type
	}
	w.WriteString(typ)
	w.WriteByte('\n')

	f.mu.Lock()
	ordered := make([]*series, 0, len(f.order))
	for _, key := range f.order {
		ordered = append(ordered, f.series[key])
	}
	f.mu.Unlock()

	for _, s := range ordered {
		switch m := s.m.(type) {
		case *Counter:
			writeSample(w, f.name, "", f.labels, s.labelValues, "", formatUint(m.Value()))
		case *Gauge:
			writeSample(w, f.name, "", f.labels, s.labelValues, "", strconv.FormatInt(m.Value(), 10))
		case *FloatGauge:
			writeSample(w, f.name, "", f.labels, s.labelValues, "", formatFloat(m.Value()))
		case *Histogram:
			cum := uint64(0)
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				writeSample(w, f.name, "_bucket", f.labels, s.labelValues, formatFloat(b), formatUint(cum))
			}
			cum += m.counts[len(m.bounds)].Load()
			writeSample(w, f.name, "_bucket", f.labels, s.labelValues, "+Inf", formatUint(cum))
			writeSample(w, f.name, "_sum", f.labels, s.labelValues, "", formatFloat(m.Sum()))
			writeSample(w, f.name, "_count", f.labels, s.labelValues, "", formatUint(m.Count()))
		}
	}
}

// writeSample emits one line: name[suffix]{labels...,le="bound"} value.
func writeSample(w *bufio.Writer, name, suffix string, labels, values []string, le, value string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
