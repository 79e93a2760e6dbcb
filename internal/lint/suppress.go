package lint

import (
	"fmt"
	"os"
	"path"
	"strconv"
	"strings"
)

// Suppressions is the parsed form of a .positlint.suppress file.
//
// The file holds one entry per line:
//
//	<rule> <path>[:<line>] -- <reason>
//
// where <rule> may be "*" (any rule), <path> is the slash-separated
// file path relative to the module root (glob patterns per path.Match
// are allowed), and the reason after "--" is mandatory — every
// suppression must explain why the finding is a false positive.
// Blank lines and lines starting with '#' are ignored.
type Suppressions struct {
	Entries []SuppressEntry // parsed suppression lines, file order
}

// SuppressEntry is one parsed suppression line.
type SuppressEntry struct {
	Rule   string // rule identifier, or "*" for any rule
	Path   string // slash-separated, relative to module root; may be a glob
	Line   int    // 0 = whole file
	Reason string // mandatory justification after "--"
}

// ParseSuppressions parses suppression-file content. name is used in
// error messages only.
func ParseSuppressions(name, content string) (*Suppressions, error) {
	s := &Suppressions{}
	for i, raw := range strings.Split(content, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		body, reason, ok := strings.Cut(line, "--")
		reason = strings.TrimSpace(reason)
		if !ok || reason == "" {
			return nil, fmt.Errorf("%s:%d: suppression needs a reason after \"--\"", name, i+1)
		}
		fields := strings.Fields(strings.TrimSpace(body))
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<rule> <path>[:<line>] -- <reason>\", got %q", name, i+1, line)
		}
		e := SuppressEntry{Rule: fields[0], Path: fields[1], Reason: reason}
		if base, ln, ok := strings.Cut(fields[1], ":"); ok {
			n, err := strconv.Atoi(ln)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%s:%d: bad line number in %q", name, i+1, fields[1])
			}
			e.Path, e.Line = base, n
		}
		if e.Rule != "*" {
			if _, ok := RuleByID(e.Rule); !ok {
				return nil, fmt.Errorf("%s:%d: unknown rule %q", name, i+1, e.Rule)
			}
		}
		s.Entries = append(s.Entries, e)
	}
	return s, nil
}

// LoadSuppressions reads and parses a suppression file. A missing
// file yields an empty (never nil) set.
func LoadSuppressions(file string) (*Suppressions, error) {
	data, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		return &Suppressions{}, nil
	}
	if err != nil {
		return nil, err
	}
	return ParseSuppressions(file, string(data))
}

// Match reports whether d is covered by any entry. A nil set covers
// nothing.
func (s *Suppressions) Match(d Diagnostic) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Entries {
		if e.Matches(d) {
			return true
		}
	}
	return false
}

// Matches reports whether this single entry covers d — rule, optional
// line pin, and path (exact or path.Match glob) all agree.
func (e SuppressEntry) Matches(d Diagnostic) bool {
	if e.Rule != "*" && e.Rule != d.RuleID {
		return false
	}
	if e.Line != 0 && e.Line != d.Pos.Line {
		return false
	}
	if ok, _ := path.Match(e.Path, d.Pos.Filename); !ok && e.Path != d.Pos.Filename {
		return false
	}
	return true
}
