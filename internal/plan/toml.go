package plan

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is a minimal TOML-subset parser for plan and fault files, kept
// dependency-free on purpose (the module has no third-party imports). The
// subset is exactly what plans/*.toml need:
//
//   - `# comment` lines and trailing comments
//   - `key = value` pairs with bare keys [A-Za-z0-9_-]+
//   - one level of `[table]` sections (grid, scale, faults)
//   - values: basic "strings" (\\ \" \n \t \r escapes), booleans, integers,
//     floats, and single-line arrays of those
//
// Anything outside the subset — dotted keys, nested/array tables,
// multi-line strings or arrays, dates — is a parse error, never a silent
// misread. The parser is fuzzed (FuzzPlanFile, FuzzFaultPlan): any input
// may error but must not panic or allocate proportionally to anything but
// input size.

// parseTOML parses the subset into a generic tree: nested map[string]any
// with string/bool/int64/float64/[]any leaves.
func parseTOML(data []byte) (map[string]any, error) {
	root := map[string]any{}
	cur := root
	for lineNo, line := range strings.Split(string(data), "\n") {
		lineNo++ // 1-based for messages
		s := strings.TrimSpace(line)
		if s == "" || s[0] == '#' {
			continue
		}
		if s[0] == '[' {
			name, err := parseTableHeader(s)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if _, exists := root[name]; exists {
				return nil, fmt.Errorf("line %d: table [%s] defined twice", lineNo, name)
			}
			cur = map[string]any{}
			root[name] = cur
			continue
		}
		key, rest, err := splitKeyValue(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, exists := cur[key]; exists {
			return nil, fmt.Errorf("line %d: key %q set twice", lineNo, key)
		}
		p := &tomlValueParser{s: rest}
		val, err := p.value()
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := p.expectEnd(); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		cur[key] = val
	}
	return root, nil
}

func parseTableHeader(s string) (string, error) {
	end := strings.IndexByte(s, ']')
	if end < 0 {
		return "", fmt.Errorf("unterminated table header %q", s)
	}
	if rest := strings.TrimSpace(s[end+1:]); rest != "" && rest[0] != '#' {
		return "", fmt.Errorf("trailing content after table header: %q", rest)
	}
	name := strings.TrimSpace(s[1:end])
	if !isBareKey(name) {
		return "", fmt.Errorf("unsupported table name %q (bare keys only, no nesting)", name)
	}
	return name, nil
}

func splitKeyValue(s string) (key, rest string, err error) {
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return "", "", fmt.Errorf("expected key = value, got %q", s)
	}
	key = strings.TrimSpace(s[:eq])
	if !isBareKey(key) {
		return "", "", fmt.Errorf("unsupported key %q (bare keys only)", key)
	}
	return key, strings.TrimSpace(s[eq+1:]), nil
}

func isBareKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// tomlValueParser scans one value from a single line's remainder.
type tomlValueParser struct {
	s   string
	pos int
}

func (p *tomlValueParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

// expectEnd succeeds when only whitespace or a trailing comment remains.
func (p *tomlValueParser) expectEnd() error {
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] != '#' {
		return fmt.Errorf("trailing content after value: %q", p.s[p.pos:])
	}
	return nil
}

func (p *tomlValueParser) value() (any, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return nil, fmt.Errorf("missing value")
	}
	switch c := p.s[p.pos]; {
	case c == '"':
		return p.stringLit()
	case c == '[':
		return p.array()
	case c == 't' || c == 'f':
		return p.boolLit()
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return p.number()
	default:
		return nil, fmt.Errorf("unsupported value starting at %q", p.s[p.pos:])
	}
}

func (p *tomlValueParser) stringLit() (string, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch c {
		case '"':
			p.pos++
			return b.String(), nil
		case '\\':
			p.pos++
			if p.pos >= len(p.s) {
				return "", fmt.Errorf("dangling escape in string")
			}
			switch p.s[p.pos] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			default:
				return "", fmt.Errorf("unsupported escape \\%c", p.s[p.pos])
			}
			p.pos++
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", fmt.Errorf("unterminated string")
}

func (p *tomlValueParser) boolLit() (bool, error) {
	if strings.HasPrefix(p.s[p.pos:], "true") {
		p.pos += 4
		return true, nil
	}
	if strings.HasPrefix(p.s[p.pos:], "false") {
		p.pos += 5
		return false, nil
	}
	return false, fmt.Errorf("unsupported value starting at %q", p.s[p.pos:])
}

func (p *tomlValueParser) number() (any, error) {
	start := p.pos
	if c := p.s[p.pos]; c == '+' || c == '-' {
		p.pos++
	}
	isFloat := false
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' || c == 'e' || c == 'E':
			isFloat = true
		case c == '+' || c == '-':
			// exponent sign; only legal right after e/E, ParseFloat checks
			if prev := p.s[p.pos-1]; prev != 'e' && prev != 'E' {
				goto done
			}
		default:
			goto done
		}
		p.pos++
	}
done:
	tok := p.s[start:p.pos]
	if isFloat {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", tok, err)
		}
		return f, nil
	}
	i, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad integer %q: %w", tok, err)
	}
	return i, nil
}

func (p *tomlValueParser) array() (any, error) {
	p.pos++ // opening bracket
	out := []any{}
	for {
		p.skipSpace()
		if p.pos >= len(p.s) {
			return nil, fmt.Errorf("unterminated array")
		}
		if p.s[p.pos] == ']' {
			p.pos++
			return out, nil
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		if _, nested := v.([]any); nested {
			return nil, fmt.Errorf("nested arrays are not supported")
		}
		out = append(out, v)
		p.skipSpace()
		if p.pos < len(p.s) && p.s[p.pos] == ',' {
			p.pos++
			continue
		}
		if p.pos < len(p.s) && p.s[p.pos] == ']' {
			p.pos++
			return out, nil
		}
		return nil, fmt.Errorf("expected , or ] in array, got %q", p.s[p.pos:])
	}
}
