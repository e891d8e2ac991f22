package plan

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"dapes/internal/experiment"
	"dapes/internal/fault"
)

// MaxPlanFileSize bounds plan and fault files. Both are a few dozen lines;
// the bound keeps a mis-pointed path (a results file, a core dump) from
// being slurped and parsed wholesale.
const MaxPlanFileSize = 1 << 20

// ParseFile reads and parses a plan file (Parse).
func ParseFile(path string) (*Plan, error) {
	return parseFile(path, Parse)
}

// ParseFaultsFile reads and parses a fault file (ParseFaults), the file
// `dapes-sim -faults` takes.
func ParseFaultsFile(path string) (*fault.Plan, error) {
	return parseFile(path, ParseFaults)
}

// parseFile reads at most MaxPlanFileSize bytes of path and parses them;
// every error names the path.
func parseFile[T any](path string, parse func([]byte) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxPlanFileSize+1))
	if err != nil {
		return zero, err
	}
	if len(data) > MaxPlanFileSize {
		return zero, fmt.Errorf("%s: over the %d-byte limit", path, MaxPlanFileSize)
	}
	v, err := parse(data)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// parseTree bounds the input and reads it with the TOML-subset reader.
func parseTree(data []byte) (map[string]any, error) {
	if len(data) > MaxPlanFileSize {
		return nil, fmt.Errorf("input is %d bytes, limit %d", len(data), MaxPlanFileSize)
	}
	return parseTOML(data)
}

// Parse decodes, defaults, and validates a plan from TOML-subset bytes. It
// never panics on malformed input — FuzzPlanFile holds it to that — and a
// returned plan is always Validate-clean.
func Parse(data []byte) (*Plan, error) {
	tree, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	p, err := decodePlan(tree)
	if err != nil {
		return nil, err
	}
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseFaults decodes and validates a fault file: a plan's [faults]
// section, with or without its header, read by the same reader and the
// same key table as a plan's. It never panics on malformed input
// (FuzzFaultPlan).
func ParseFaults(data []byte) (*fault.Plan, error) {
	tree, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	if sec, ok := tree["faults"].(map[string]any); ok && len(tree) == 1 {
		tree = sec
	}
	d := &decoder{}
	fp := &fault.Plan{}
	decode(d, "faults", tree, faultKeys, fp)
	if d.err != nil {
		return nil, d.err
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}

// key is one key of a plan-file section: its name, the axis it sets (zero
// for none), and the field its value is stored in. A section is one table
// of keys, so a key the reader accepts is a key it stores.
type key[T any] struct {
	name  string
	axis  experiment.Axis
	field func(*T) any
}

// planFile is what the top level of a plan file decodes into.
type planFile struct {
	plan                *Plan
	scenario            string
	grid, scale, faults map[string]any
}

var topKeys = []key[planFile]{
	{name: "name", field: func(f *planFile) any { return &f.plan.Name }},
	{name: "scenario", field: func(f *planFile) any { return &f.scenario }},
	{name: "summary", field: func(f *planFile) any { return &f.plan.Summary }},
	{name: "trials", field: func(f *planFile) any { return &f.plan.Trials }},
	{name: "seed", field: func(f *planFile) any { return &f.plan.Seed }},
	{name: "grid", field: func(f *planFile) any { return &f.grid }},
	{name: "scale", field: func(f *planFile) any { return &f.scale }},
	{name: "faults", axis: experiment.AxisFaults, field: func(f *planFile) any { return &f.faults }},
}

var gridKeys = []key[Grid]{
	{name: "scenarios", field: func(g *Grid) any { return &g.Scenarios }},
	{name: "seeds", field: func(g *Grid) any { return &g.Seeds }},
	{name: "nodes", axis: experiment.AxisNodes, field: func(g *Grid) any { return &g.Nodes }},
	{name: "ranges", axis: experiment.AxisRange, field: func(g *Grid) any { return &g.Ranges }},
	{name: "loss", axis: experiment.AxisLoss, field: func(g *Grid) any { return &g.Loss }},
	{name: "horizons", field: func(g *Grid) any { return &g.Horizons }},
}

var scaleKeys = []key[experiment.Scale]{
	{name: "files", field: func(s *experiment.Scale) any { return &s.NumFiles }},
	{name: "packets", field: func(s *experiment.Scale) any { return &s.PacketsPerFile }},
	{name: "packet_size", field: func(s *experiment.Scale) any { return &s.PacketSize }},
	{name: "horizon", field: func(s *experiment.Scale) any { return &s.Horizon }},
	{name: "stationary", axis: experiment.AxisNodes, field: func(s *experiment.Scale) any { return &s.Stationary }},
	{name: "mobile_down", axis: experiment.AxisNodes, field: func(s *experiment.Scale) any { return &s.MobileDown }},
	{name: "pure_forwarders", axis: experiment.AxisNodes, field: func(s *experiment.Scale) any { return &s.PureForwarders }},
	{name: "intermediates", axis: experiment.AxisNodes, field: func(s *experiment.Scale) any { return &s.Intermediates }},
	{name: "loss", axis: experiment.AxisLoss, field: func(s *experiment.Scale) any { return &s.LossRate }},
	{name: "area_side", axis: experiment.AxisArea, field: func(s *experiment.Scale) any { return &s.AreaSide }},
}

// faultKeys is the [faults] section of a plan and the whole of a fault
// file.
var faultKeys = []key[fault.Plan]{
	{name: "crash_frac", field: func(p *fault.Plan) any { return &p.CrashFrac }},
	{name: "crash_from", field: func(p *fault.Plan) any { return &p.CrashFrom }},
	{name: "crash_until", field: func(p *fault.Plan) any { return &p.CrashUntil }},
	{name: "restart_min", field: func(p *fault.Plan) any { return &p.RestartMin }},
	{name: "restart_max", field: func(p *fault.Plan) any { return &p.RestartMax }},
	{name: "jam_x", field: func(p *fault.Plan) any { return &p.JamX }},
	{name: "jam_y", field: func(p *fault.Plan) any { return &p.JamY }},
	{name: "jam_radius", field: func(p *fault.Plan) any { return &p.JamRadius }},
	{name: "jam_from", field: func(p *fault.Plan) any { return &p.JamFrom }},
	{name: "jam_until", field: func(p *fault.Plan) any { return &p.JamUntil }},
	{name: "loss_model", field: func(p *fault.Plan) any { return &p.LossModel }},
	{name: "loss_p_good", field: func(p *fault.Plan) any { return &p.PGood }},
	{name: "loss_p_bad", field: func(p *fault.Plan) any { return &p.PBad }},
	{name: "loss_good_to_bad", field: func(p *fault.Plan) any { return &p.GoodToBad }},
	{name: "loss_bad_to_good", field: func(p *fault.Plan) any { return &p.BadToGood }},
}

// decodePlan maps the generic tree onto a Plan with strict keys: every
// unknown key is an error naming its path, so typos fail loudly instead of
// silently sweeping a default.
func decodePlan(tree map[string]any) (*Plan, error) {
	p := &Plan{Trials: 1, Seed: 1, Base: experiment.ReducedScale()}
	f := &planFile{plan: p}
	d := &decoder{}
	decode(d, "", tree, topKeys, f)
	if f.grid != nil {
		decode(d, "grid", f.grid, gridKeys, &p.Grid)
	}
	if f.scenario != "" {
		if len(p.Grid.Scenarios) > 0 {
			d.errf("scenario and grid.scenarios are both set; name the scenarios in one place")
		}
		p.Grid.Scenarios = []string{f.scenario}
	}
	if f.scale != nil {
		decode(d, "scale", f.scale, scaleKeys, &p.Base)
	}
	if f.faults != nil {
		p.Base.Faults = &fault.Plan{}
		decode(d, "faults", f.faults, faultKeys, p.Base.Faults)
	}
	if d.err != nil {
		return nil, d.err
	}
	p.set = d.set
	return p, nil
}

// setKey records a key the file set on an axis a scenario may refuse.
type setKey struct {
	axis experiment.Axis
	path string
}

// decoder keeps the first decode error and the axis keys the file set.
type decoder struct {
	err error
	set []setKey
}

func (d *decoder) errf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func path(section, key string) string {
	if section == "" {
		return key
	}
	return section + "." + key
}

// decode stores the section m through its key table into *into, after
// rejecting every key the table does not name.
func decode[T any](d *decoder, section string, m map[string]any, keys []key[T], into *T) {
	if d.err != nil {
		return
	}
	var unknown []string
	for k := range m {
		if !slices.ContainsFunc(keys, func(e key[T]) bool { return e.name == k }) {
			unknown = append(unknown, path(section, k))
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		names := make([]string, len(keys))
		for i, e := range keys {
			names[i] = e.name
		}
		where := "plan"
		if section != "" {
			where = "[" + section + "]"
		}
		d.errf("unknown key(s) %v (allowed in %s: %v)", unknown, where, names)
		return
	}
	for _, e := range keys {
		if v, ok := m[e.name]; ok {
			d.store(path(section, e.name), v, e.field(into))
			if e.axis != 0 {
				d.set = append(d.set, setKey{e.axis, path(section, e.name)})
			}
		}
	}
}

// store converts v to the type dst points at and writes it there.
func (d *decoder) store(at string, v any, dst any) {
	switch dst := dst.(type) {
	case *string:
		scalar(d, at, v, dst, asString)
	case *int:
		scalar(d, at, v, dst, asInt)
	case *int64:
		scalar(d, at, v, dst, asInt64)
	case *float64:
		scalar(d, at, v, dst, asFloat)
	case *time.Duration:
		scalar(d, at, v, dst, asDuration)
	case *map[string]any:
		scalar(d, at, v, dst, asTable)
	case *[]string:
		list(d, at, v, dst, asString)
	case *[]int:
		list(d, at, v, dst, asInt)
	case *[]int64:
		list(d, at, v, dst, asInt64)
	case *[]float64:
		list(d, at, v, dst, asFloat)
	case *[]time.Duration:
		list(d, at, v, dst, asDuration)
	default:
		panic(fmt.Sprintf("plan: key %s stores into %T", at, dst))
	}
}

func scalar[E any](d *decoder, at string, v any, dst *E, as func(any) (E, error)) {
	e, err := as(v)
	if err != nil {
		d.errf("%s: %v", at, err)
		return
	}
	*dst = e
}

func list[E any](d *decoder, at string, v any, dst *[]E, as func(any) (E, error)) {
	raw, ok := v.([]any)
	if !ok {
		d.errf("%s: expected an array, got %T", at, v)
		return
	}
	out := make([]E, 0, len(raw))
	for i, x := range raw {
		e, err := as(x)
		if err != nil {
			d.errf("%s[%d]: %v", at, i, err)
			return
		}
		out = append(out, e)
	}
	*dst = out
}

// The converters from the reader's leaves (string, bool, int64, float64,
// []any, map[string]any) to a field's type.

func asString(v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("expected a string, got %T", v)
	}
	return s, nil
}

func asInt64(v any) (int64, error) {
	i, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("expected an integer, got %v (%T)", v, v)
	}
	return i, nil
}

func asInt(v any) (int, error) {
	i, err := asInt64(v)
	if err == nil && int64(int(i)) != i {
		err = fmt.Errorf("%d overflows int", i)
	}
	return int(i), err
}

func asFloat(v any) (float64, error) {
	switch n := v.(type) {
	case float64:
		return n, nil
	case int64:
		return float64(n), nil
	}
	return 0, fmt.Errorf("expected a number, got %v (%T)", v, v)
}

func asDuration(v any) (time.Duration, error) {
	s, err := asString(v)
	if err != nil {
		return 0, fmt.Errorf("expected a duration string like \"90s\", got %v (%T)", v, v)
	}
	return time.ParseDuration(s)
}

func asTable(v any) (map[string]any, error) {
	t, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("expected a table, got %T", v)
	}
	return t, nil
}
