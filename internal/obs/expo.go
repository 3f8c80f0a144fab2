package obs

import (
	"io"
	"math"
	"strconv"
)

// WritePrometheus writes the exposition AppendPrometheus renders.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := w.Write(r.AppendPrometheus(nil))
	return err
}

// AppendPrometheus appends every registered family to dst in the
// Prometheus text exposition format (version 0.0.4) and returns the
// extended slice: families in registration order, series in creation
// order, so output is deterministic and diffable. The registry's and
// each family's lists only grow, so a render reads their headers under
// the locks and walks them without: it copies nothing, and into a
// buffer kept across scrapes it allocates nothing once the buffer has
// grown to an exposition's size.
//
//rtic:noalloc
func (r *Registry) AppendPrometheus(dst []byte) []byte {
	r.mu.Lock()
	families, rt := r.families, r.runtime
	r.mu.Unlock()
	if rt != nil {
		rt.read()
	}
	for _, f := range families {
		dst = f.appendTo(dst)
	}
	return dst
}

// appendTo appends the family's HELP and TYPE lines and its samples.
//
//rtic:noalloc
func (f *family) appendTo(b []byte) []byte {
	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = appendEscaped(b, f.help, false)
	b = append(b, "\n# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	if f.typ == "floatgauge" {
		b = append(b, "gauge"...) // exposition has one gauge type
	} else {
		b = append(b, f.typ...)
	}
	b = append(b, '\n')

	f.mu.Lock()
	list := f.list
	f.mu.Unlock()
	for _, s := range list {
		switch m := s.m.(type) {
		case *Counter:
			b = strconv.AppendUint(f.appendName(b, "", s, false, 0), m.Value(), 10)
		case *Gauge:
			b = strconv.AppendInt(f.appendName(b, "", s, false, 0), m.Value(), 10)
		case *FloatGauge:
			b = appendFloat(f.appendName(b, "", s, false, 0), m.Value())
		case *Histogram:
			cum := uint64(0)
			for i, bound := range m.bounds {
				cum += m.counts[i].Load()
				b = strconv.AppendUint(f.appendName(b, "_bucket", s, true, bound), cum, 10)
				b = append(b, '\n')
			}
			cum += m.counts[len(m.bounds)].Load()
			b = strconv.AppendUint(f.appendName(b, "_bucket", s, true, math.Inf(1)), cum, 10)
			b = append(b, '\n')
			b = appendFloat(f.appendName(b, "_sum", s, false, 0), m.Sum())
			b = append(b, '\n')
			b = strconv.AppendUint(f.appendName(b, "_count", s, false, 0), m.Count(), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// appendName appends a sample's name, suffix and labels up to its
// value: name[suffix]{labels...,le="bound"} and the space. bucket adds
// the le label.
//
//rtic:noalloc
func (f *family) appendName(b []byte, suffix string, s *series, bucket bool, le float64) []byte {
	b = append(b, f.name...)
	b = append(b, suffix...)
	if len(f.labels) > 0 || bucket {
		b = append(b, '{')
		for i, l := range f.labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l...)
			b = append(b, `="`...)
			b = appendEscaped(b, s.labelValues[i], true)
			b = append(b, '"')
		}
		if bucket {
			if len(f.labels) > 0 {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			if math.IsInf(le, 1) {
				b = append(b, "+Inf"...)
			} else {
				b = appendFloat(b, le)
			}
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendFloat formats v as strconv.FormatFloat(v, 'g', -1, 64) does.
//
//rtic:noalloc
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendEscaped appends s with each backslash and newline escaped, and
// with quote each double quote too: a label value's escaping, or with
// quote false a help text's.
//
//rtic:noalloc
func appendEscaped(b []byte, s string, quote bool) []byte {
	plain := true
	for i := 0; i < len(s) && plain; i++ {
		plain = s[i] != '\\' && s[i] != '\n' && (s[i] != '"' || !quote)
	}
	if plain {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quote:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}
