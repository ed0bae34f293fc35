package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one /metrics exposition, kept line by line.
type scrape []series

// parsePromText reads the Prometheus text format (version 0.0.4): comment
// lines are skipped, every other line is `name{k="v",...} value`.
func parsePromText(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d %q: %w", ln, line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSeries(line string) (series, error) {
	s := series{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value")
	}
	s.name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("bad label")
			}
			key := rest[:eq]
			val, n, err := unquoteLabel(rest[eq+2:])
			if err != nil {
				return s, err
			}
			s.labels[key] = val
			rest = rest[eq+2+n:]
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("no value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value: %w", err)
	}
	s.value = v
	return s, nil
}

// unquoteLabel reads a label value up to its closing quote, undoing the
// \\, \" and \n escapes; n is the bytes consumed including the quote.
func unquoteLabel(s string) (val string, n int, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 == len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// sum adds the values of every series of family name whose labels include
// all of match (alternating key, value).
func (sc scrape) sum(name string, match ...string) float64 {
	total := 0.0
	for _, s := range sc {
		if s.name == name && s.has(match) {
			total += s.value
		}
	}
	return total
}

func (s series) has(match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if s.labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// delta is the change of counters and histogram sums/counts between two
// scrapes of the same processes: the work done in the window between them.
type delta struct{ before, after []scrape }

// sum is the window's change of the matching series, summed over every
// scraped process.
func (d delta) sum(name string, match ...string) float64 {
	total := 0.0
	for _, sc := range d.after {
		total += sc.sum(name, match...)
	}
	for _, sc := range d.before {
		total -= sc.sum(name, match...)
	}
	return total
}
