// Prometheus text-format exposition: rendering a registry (or a merged set
// of family snapshots) as `text/plain; version=0.0.4`, the http.Handler
// wrapper every /metrics endpoint mounts, and a structural linter for the
// format that the exposition tests and the CI scrape job share.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders the registry in Prometheus text format. Families are
// sorted by name and series by label values, so the output is stable
// between scrapes that observe the same state.
func (r *Registry) WriteText(w io.Writer) error {
	return WriteFamilies(w, r.Snapshot())
}

// Handler returns an http.Handler serving the registry's exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WriteText(w)
	})
}

// WriteFamilies renders family snapshots in Prometheus text format —
// the shared backend of Registry.WriteTo and of cluster-wide endpoints
// that merge coordinator and worker snapshots first.
func WriteFamilies(w io.Writer, fams []Family) error {
	bw := bufio.NewWriter(w)
	sorted := append([]Family(nil), fams...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, f := range sorted {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		series := append([]Series(nil), f.Series...)
		sort.Slice(series, func(i, j int) bool {
			return strings.Join(series[i].Values, "\x00") < strings.Join(series[j].Values, "\x00")
		})
		for _, s := range series {
			switch f.Kind {
			case "histogram":
				cum := uint64(0)
				for i, c := range s.Counts {
					cum += c
					le := "+Inf"
					if i < len(f.Buckets) {
						le = formatFloat(f.Buckets[i])
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name, labelString(f.Labels, s.Values, "le", le), cum)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.Name, labelString(f.Labels, s.Values, "", ""), formatFloat(s.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.Name, labelString(f.Labels, s.Values, "", ""), s.Count)
			default:
				fmt.Fprintf(bw, "%s%s %s\n", f.Name, labelString(f.Labels, s.Values, "", ""), formatFloat(s.Value))
			}
		}
	}
	return bw.Flush()
}

// labelString renders a {name="value",...} block, empty when there are no
// labels. extraName/extraValue append one synthetic label (the histogram
// "le" bound).
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Lint structurally validates Prometheus text exposition: every sample line
// must parse (name, optional label block, float value), every sample must
// follow a # TYPE line declaring its family, histogram families must carry
// _bucket/_sum/_count samples with a le label on buckets, and no family may
// be declared twice. Each histogram series (its labels but le) must list
// its buckets in increasing le, with values that never decrease, and end on
// a le="+Inf" bucket equal to its _count. It returns the family count and
// the first violation.
func Lint(r io.Reader) (families int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := make(map[string]string) // family -> kind
	var hists []*histSeries          // in order of first sample
	histByKey := make(map[string]*histSeries)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			parts := strings.Fields(text)
			if len(parts) != 4 {
				return families, fmt.Errorf("line %d: malformed TYPE line %q", line, text)
			}
			name, kind := parts[2], parts[3]
			if !validName(name) {
				return families, fmt.Errorf("line %d: invalid family name %q", line, name)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return families, fmt.Errorf("line %d: unknown kind %q", line, kind)
			}
			if _, dup := typed[name]; dup {
				return families, fmt.Errorf("line %d: family %s declared twice", line, name)
			}
			typed[name] = kind
			families++
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // HELP or comment
		}
		name, labels, value, perr := parseSample(text)
		if perr != nil {
			return families, fmt.Errorf("line %d: %v", line, perr)
		}
		fam, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name {
				if k, ok := typed[base]; ok && k == "histogram" {
					fam, suffix = base, sfx
				}
				break
			}
		}
		kind, ok := typed[fam]
		if !ok {
			return families, fmt.Errorf("line %d: sample %s without a TYPE declaration", line, name)
		}
		if kind == "histogram" {
			if suffix == "" {
				return families, fmt.Errorf("line %d: histogram %s exposes bare sample", line, fam)
			}
			le, hasLE := labels["le"]
			delete(labels, "le")
			names := slices.Sorted(maps.Keys(labels))
			values := make([]string, len(names))
			for i, n := range names {
				values[i] = labels[n]
			}
			key := fam + labelString(names, values, "", "")
			h := histByKey[key]
			if h == nil {
				h = &histSeries{name: key}
				histByKey[key] = h
				hists = append(hists, h)
			}
			switch suffix {
			case "_bucket":
				if !hasLE {
					return families, fmt.Errorf("line %d: %s_bucket without le label", line, fam)
				}
				bound, err := strconv.ParseFloat(le, 64)
				switch {
				case err != nil:
					return families, fmt.Errorf("line %d: %s_bucket le=%q: %v", line, fam, le, err)
				case h.buckets > 0 && bound <= h.le:
					return families, fmt.Errorf("line %d: %s bucket le=%g after le=%g", line, key, bound, h.le)
				case h.buckets > 0 && value < h.last:
					return families, fmt.Errorf("line %d: %s bucket le=%g holds %g, below le=%g's %g", line, key, bound, value, h.le, h.last)
				}
				h.le, h.last = bound, value
				h.buckets++
			case "_count":
				h.count, h.hasCount = value, true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return families, err
	}
	if families == 0 {
		return 0, fmt.Errorf("no metric families found")
	}
	for _, h := range hists {
		switch {
		case h.buckets == 0 || !math.IsInf(h.le, 1):
			return families, fmt.Errorf("histogram %s: no le=\"+Inf\" bucket", h.name)
		case !h.hasCount:
			return families, fmt.Errorf("histogram %s: no _count", h.name)
		case h.last != h.count:
			return families, fmt.Errorf("histogram %s: le=\"+Inf\" bucket %g differs from _count %g", h.name, h.last, h.count)
		}
	}
	return families, nil
}

// histSeries is one histogram series as Lint reads it: how many buckets it
// showed, the last one's bound and value, and its _count.
type histSeries struct {
	name     string // family and labels but le
	buckets  int
	le, last float64
	count    float64
	hasCount bool
}

// parseSample parses `name{l1="v1",...} value` into its parts.
func parseSample(s string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	i := 0
	for i < len(s) && s[i] != '{' && s[i] != ' ' {
		i++
	}
	name = s[:i]
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid sample name %q", name)
	}
	rest := s[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label block in %q", s)
		}
		block := rest[1:end]
		rest = rest[end+1:]
		for len(block) > 0 {
			eq := strings.Index(block, "=")
			if eq < 0 || len(block) < eq+2 || block[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label in %q", s)
			}
			lname := block[:eq]
			if !validName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			// Scan the quoted value, honouring escapes.
			j := eq + 2
			var val strings.Builder
			closed := false
			for j < len(block) {
				c := block[j]
				if c == '\\' && j+1 < len(block) {
					val.WriteByte(block[j+1])
					j += 2
					continue
				}
				if c == '"' {
					closed = true
					j++
					break
				}
				val.WriteByte(c)
				j++
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", s)
			}
			labels[lname] = val.String()
			block = strings.TrimPrefix(block[j:], ",")
		}
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", nil, 0, fmt.Errorf("malformed sample %q", s)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %v", s, err)
	}
	return name, labels, value, nil
}
