package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshots()
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	bw := bufio.NewWriter(w)
	lastName := ""
	for _, s := range snaps {
		if s.Name != lastName {
			if s.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.Name, escapeHelp(s.Help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Name, s.Kind)
			lastName = s.Name
		}
		switch s.Kind {
		case KindCounter, KindGauge:
			fmt.Fprintf(bw, "%s%s %s\n", s.Name, formatLabels(s.Labels), formatValue(s.Value))
		case KindHistogram:
			for _, b := range s.Buckets {
				le := "+Inf"
				if !math.IsInf(b.Le, 1) {
					le = formatValue(b.Le)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", s.Name,
					formatLabels(append(append([]Label(nil), s.Labels...), Label{Name: "le", Value: le})), b.Count)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", s.Name, formatLabels(s.Labels), formatValue(s.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", s.Name, formatLabels(s.Labels), s.Count)
		}
	}
	return bw.Flush()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// ValidMetricName reports whether name matches the Prometheus metric name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func ValidLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ValidatePrometheus parses r as Prometheus text exposition format and
// returns an error describing the first violation: malformed comment,
// unknown TYPE, invalid metric/label name, unparsable value, a sample for
// a TYPE-declared histogram missing its +Inf bucket, or a non-cumulative
// bucket sequence. Tests use it to assert that /metrics output is
// scrape-able without pulling in a Prometheus dependency.
//
//flex:keep the /metrics tests of three packages hold their output to it; a _test.go file cannot be imported
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	types := map[string]string{}
	type histState struct {
		sawInf  bool
		lastCum uint64
		lastLe  float64
	}
	hists := map[string]*histState{}
	sawSample := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if !ValidMetricName(fields[2]) {
				return fmt.Errorf("line %d: invalid metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE missing type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown TYPE %q", lineNo, fields[3])
				}
				types[fields[2]] = fields[3]
				if fields[3] == "histogram" {
					hists[fields[2]] = &histState{lastLe: math.Inf(-1)}
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		sawSample = true
		base, isBucket := strings.CutSuffix(name, "_bucket")
		if hs, ok := hists[base]; ok && isBucket {
			leStr, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: histogram bucket %s without le label", lineNo, name)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le %q: %v", lineNo, leStr, err)
				}
			} else {
				hs.sawInf = true
			}
			cum := uint64(value)
			if le < hs.lastLe {
				// A new series (different labels) restarts the sequence.
				hs.lastCum = 0
			}
			if cum < hs.lastCum {
				return fmt.Errorf("line %d: non-cumulative histogram bucket %s le=%s", lineNo, base, leStr)
			}
			hs.lastCum, hs.lastLe = cum, le
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, hs := range hists {
		if !hs.sawInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", name)
		}
	}
	if !sawSample {
		return fmt.Errorf("no samples found")
	}
	return nil
}

// parseSample parses `name{l1="v1",...} value [timestamp]`.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		name = rest[:brace]
		rest = rest[brace+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			lname := strings.TrimSpace(rest[:eq])
			if !ValidLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if len(rest) == 0 {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				if c == '\\' && len(rest) >= 2 {
					switch rest[1] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[1])
					}
					rest = rest[2:]
					continue
				}
				rest = rest[1:]
				if c == '"' {
					break
				}
				val.WriteByte(c)
			}
			labels[lname] = val.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
		}
	} else {
		if space < 0 {
			return "", nil, 0, fmt.Errorf("sample without value in %q", line)
		}
		name = rest[:space]
		rest = rest[space:]
	}
	if !ValidMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value [timestamp] in %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q: %v", fields[1], err)
		}
	}
	return name, labels, value, nil
}
