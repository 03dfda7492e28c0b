package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a parser for the
// Prometheus/OpenMetrics text format WritePrometheus emits (including
// exemplar clauses) and a linter asserting conformance. felastat uses
// the parser to scrape cluster members; the e2e tests and CI use the
// linter to keep /metrics valid.

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
	// Exemplar is the parsed exemplar clause, nil when absent.
	Exemplar *SampleExemplar
}

// SampleExemplar is a parsed `# {labels} value [timestamp]` clause.
type SampleExemplar struct {
	Labels map[string]string
	Value  float64
	TS     float64 // unix seconds, 0 when absent
}

// Exposition is a parsed scrape.
type Exposition struct {
	Samples []Sample
	Types   map[string]string // family name -> TYPE
	Help    map[string]string // family name -> HELP
}

// Find returns every sample of the exact metric name, in input order.
func (e *Exposition) Find(name string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Gauge returns the value of the first sample matching name and the
// given label pairs (k1, v1, k2, v2, …), and whether one was found.
func (e *Exposition) Gauge(name string, kv ...string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ParseExposition parses a text-format scrape. It accepts everything
// the linter accepts plus minor slop (unknown comment lines, missing
// HELP), failing only on structurally broken lines.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}, Help: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, exp); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// parseComment handles # HELP / # TYPE / # EOF; other comments pass.
func parseComment(line string, exp *Exposition) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " ")
	switch {
	case strings.HasPrefix(rest, "HELP "):
		parts := strings.SplitN(rest[len("HELP "):], " ", 2)
		if parts[0] == "" {
			return fmt.Errorf("HELP without a metric name")
		}
		help := ""
		if len(parts) == 2 {
			help = parts[1]
		}
		exp.Help[parts[0]] = help
	case strings.HasPrefix(rest, "TYPE "):
		parts := strings.Fields(rest[len("TYPE "):])
		if len(parts) != 2 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		exp.Types[parts[0]] = parts[1]
	}
	return nil
}

// parseSample parses `name[{labels}] value [ts] [# {exlabels} exval [exts]]`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line

	// Name runs up to '{' or whitespace.
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	rest = rest[end:]

	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabelSet(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}

	// Split an exemplar clause off the end: ` # {…} value [ts]`.
	var exClause string
	if i := strings.Index(rest, " # "); i >= 0 {
		exClause = strings.TrimSpace(rest[i+3:])
		rest = rest[:i]
	}

	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want `value [timestamp]`, got %d fields", line, len(fields))
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	s.Value = v

	if exClause != "" {
		ex, err := parseExemplar(exClause)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
		s.Exemplar = ex
	}
	return s, nil
}

func parseExemplar(clause string) (*SampleExemplar, error) {
	if !strings.HasPrefix(clause, "{") {
		return nil, fmt.Errorf("exemplar clause %q must start with a labelset", clause)
	}
	labels, tail, err := parseLabelSet(clause)
	if err != nil {
		return nil, fmt.Errorf("exemplar labels: %w", err)
	}
	fields := strings.Fields(tail)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("exemplar clause %q: want `value [timestamp]`", clause)
	}
	ex := &SampleExemplar{Labels: labels}
	if ex.Value, err = parseValue(fields[0]); err != nil {
		return nil, fmt.Errorf("exemplar value: %w", err)
	}
	if len(fields) == 2 {
		if ex.TS, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("exemplar timestamp: %w", err)
		}
	}
	return ex, nil
}

// parseLabelSet parses `{k="v",…}` at the start of in, returning the
// labels and the remainder after the closing brace.
func parseLabelSet(in string) (map[string]string, string, error) {
	labels := map[string]string{}
	rest := in[1:] // past '{'
	for {
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("labelset %q: missing '='", in)
		}
		name := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("labelset %q: unquoted value for %q", in, name)
		}
		val, tail, err := parseQuoted(rest)
		if err != nil {
			return nil, "", fmt.Errorf("labelset %q: %w", in, err)
		}
		labels[name] = val
		rest = tail
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
}

// parseQuoted consumes a double-quoted string with \\ \" \n escapes.
func parseQuoted(in string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(in); i++ {
		switch in[i] {
		case '\\':
			i++
			if i >= len(in) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch in[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(in[i])
			default:
				return "", "", fmt.Errorf("bad escape \\%c", in[i])
			}
		case '"':
			return b.String(), in[i+1:], nil
		default:
			b.WriteByte(in[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// LintExposition validates a text-format scrape for Prometheus/
// OpenMetrics conformance: metric and label naming, HELP/TYPE ordering
// and uniqueness, duplicate samples, histogram shape (cumulative
// buckets, +Inf == _count, _sum/_count present), exemplar placement and
// the OpenMetrics exemplar labelset length bound, and `# EOF` (if
// present) being the final line. Returns every violation found.
func LintExposition(r io.Reader) []error {
	var errs []error
	add := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }

	raw, err := io.ReadAll(r)
	if err != nil {
		return []error{err}
	}
	text := string(raw)

	// # EOF, when present anywhere, must be the last non-empty line.
	lines := strings.Split(text, "\n")
	lastContent := -1
	for i, l := range lines {
		if strings.TrimSpace(l) != "" {
			lastContent = i
		}
	}
	for i, l := range lines {
		if strings.TrimSpace(l) == "# EOF" && i != lastContent {
			add("line %d: # EOF must be the final line", i+1)
		}
	}

	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	sampleSeen := map[string]bool{}
	validTypes := map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
	var samples []Sample
	types := map[string]string{}

	for i, line := range lines {
		lineNo := i + 1
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed == "# EOF" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimLeft(strings.TrimPrefix(line, "#"), " ")
			switch {
			case strings.HasPrefix(rest, "HELP "):
				name := strings.SplitN(rest[len("HELP "):], " ", 2)[0]
				if helpSeen[name] {
					add("line %d: duplicate HELP for %s", lineNo, name)
				}
				helpSeen[name] = true
				if sampleSeen["family:"+name] {
					add("line %d: HELP for %s after its samples", lineNo, name)
				}
			case strings.HasPrefix(rest, "TYPE "):
				parts := strings.Fields(rest[len("TYPE "):])
				if len(parts) != 2 {
					add("line %d: malformed TYPE line", lineNo)
					continue
				}
				if typeSeen[parts[0]] {
					add("line %d: duplicate TYPE for %s", lineNo, parts[0])
				}
				typeSeen[parts[0]] = true
				if !validTypes[parts[1]] {
					add("line %d: unknown TYPE %q for %s", lineNo, parts[1], parts[0])
				}
				if sampleSeen["family:"+parts[0]] {
					add("line %d: TYPE for %s after its samples", lineNo, parts[0])
				}
				types[parts[0]] = parts[1]
			}
			continue
		}

		s, err := parseSample(line)
		if err != nil {
			add("line %d: %v", lineNo, err)
			continue
		}
		if !metricNameRe.MatchString(s.Name) {
			add("line %d: invalid metric name %q", lineNo, s.Name)
		}
		for k := range s.Labels {
			if !labelNameRe.MatchString(k) {
				add("line %d: invalid label name %q", lineNo, k)
			}
		}
		key := s.Name + "|" + canonicalLabels(s.Labels)
		if sampleSeen[key] {
			add("line %d: duplicate sample %s{%s}", lineNo, s.Name, canonicalLabels(s.Labels))
		}
		sampleSeen[key] = true
		sampleSeen["family:"+familyOf(s.Name, types)] = true

		if s.Exemplar != nil {
			if !strings.HasSuffix(s.Name, "_bucket") {
				add("line %d: exemplar on non-bucket sample %s", lineNo, s.Name)
			}
			runes := 0
			for k, v := range s.Exemplar.Labels {
				runes += len([]rune(k)) + len([]rune(v))
			}
			if runes > 128 {
				add("line %d: exemplar labelset exceeds 128 characters (%d)", lineNo, runes)
			}
		}
		samples = append(samples, s)
	}

	// Histogram shape per (family, non-le labelset).
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		series := map[string]*histSeries{}
		for _, s := range samples {
			base := canonicalLabels(withoutLE(s.Labels))
			switch s.Name {
			case name + "_bucket":
				hs := getHistSeries(series, base)
				hs.buckets = append(hs.buckets, bucketPoint{le: s.Labels["le"], count: s.Value})
			case name + "_sum":
				getHistSeries(series, base).sum = true
			case name + "_count":
				hs := getHistSeries(series, base)
				hs.count = s.Value
				hs.hasCount = true
			}
		}
		for base, hs := range series {
			if len(hs.buckets) == 0 {
				add("histogram %s{%s}: no _bucket samples", name, base)
				continue
			}
			if !hs.sum {
				add("histogram %s{%s}: missing _sum", name, base)
			}
			if !hs.hasCount {
				add("histogram %s{%s}: missing _count", name, base)
			}
			prev := -1.0
			sawInf := false
			for _, bp := range hs.buckets {
				if bp.count < prev {
					add("histogram %s{%s}: bucket le=%q count %v below previous %v (not cumulative)", name, base, bp.le, bp.count, prev)
				}
				prev = bp.count
				if bp.le == "+Inf" {
					sawInf = true
					if hs.hasCount && bp.count != hs.count {
						add("histogram %s{%s}: +Inf bucket %v != _count %v", name, base, bp.count, hs.count)
					}
				}
			}
			if !sawInf {
				add("histogram %s{%s}: missing le=\"+Inf\" bucket", name, base)
			}
		}
	}
	return errs
}

type bucketPoint struct {
	le    string
	count float64
}

type histSeries struct {
	buckets  []bucketPoint
	sum      bool
	count    float64
	hasCount bool
}

func getHistSeries(m map[string]*histSeries, base string) *histSeries {
	hs, ok := m[base]
	if !ok {
		hs = &histSeries{}
		m[base] = hs
	}
	return hs
}

// familyOf strips histogram suffixes when the base name is a declared
// histogram family, so ordering checks treat _bucket/_sum/_count lines
// as samples of the family.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func withoutLE(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			out[k] = v
		}
	}
	return out
}

func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}
