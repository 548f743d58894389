package engine

import (
	"bytes"
	"reflect"
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/registry"
	"oodb/internal/storage"
)

// TestConfigPhases holds configPhases to Config: every field is named, no
// name is stale, and each key reads exactly the phases it claims — a field
// changes Fingerprint unless it is output-only, and changes the
// construction key only if it is a generation or construction field.
func TestConfigPhases(t *testing.T) {
	fields := reflect.VisibleFields(reflect.TypeOf(Config{}))
	if got := reflect.TypeOf(Config{}).NumField(); got != len(fields) {
		t.Fatalf("Config embeds a struct (%d fields, %d visible); configPhases names direct fields only", got, len(fields))
	}
	for _, f := range fields {
		if _, ok := configPhases[f.Name]; !ok {
			t.Errorf("Config.%s has no phase in configPhases", f.Name)
		}
	}
	if len(configPhases) != len(fields) {
		t.Errorf("configPhases names %d fields, Config has %d", len(configPhases), len(fields))
	}

	base := DefaultConfig(0.01)
	for i, f := range fields {
		c := base
		perturb(t, reflect.ValueOf(&c).Elem().Field(i))
		ph := configPhases[f.Name]
		if got := c.Fingerprint() != base.Fingerprint(); got != (ph < phaseOutput) {
			t.Errorf("Config.%s (phase %d): changes Fingerprint = %v", f.Name, ph, got)
		}
		persistent := !storage.IsMemoryBackend(c.Backend)
		if got := c.WorldKey() != base.WorldKey(); got != (ph <= phaseConstruction || persistent) {
			t.Errorf("Config.%s (phase %d): changes the world key = %v", f.Name, ph, got)
		}
	}

	// A file-backed world lives in its data directory: two directories
	// are two worlds.
	a, b := base, base
	a.Backend, a.DataDir = "file", "a"
	b.Backend, b.DataDir = "file", "b"
	if a.WorldKey() == b.WorldKey() {
		t.Error("file-backed configurations in different data directories share a world key")
	}
}

// perturb gives v a value other than the one it has.
func perturb(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64, reflect.Int32, reflect.Uint8:
		if v.CanInt() {
			v.SetInt(v.Int() + 1)
		} else {
			v.SetUint(v.Uint() + 1)
		}
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Interface:
		v.Set(reflect.ValueOf(new(bytes.Buffer)))
	case reflect.Struct:
		perturb(t, v.Field(0))
	default:
		t.Fatalf("perturb: unhandled kind %s", v.Kind())
	}
}

// TestCloneRunsLikeFreshBuild runs every registered replacement policy ×
// clustering strategy, on OCT and on OCB with writes on, and on OCT under
// Within_Buffer clustering, whose fallback placements all go to the
// clusterer's spill page. Each combination runs three ways: two
// clones of one template back to back, the template itself, and a fresh
// build. The template is built under other run fields than the runs use,
// as a harness batch's first member would build it. Every run must match
// the fresh build in every reported number.
func TestCloneRunsLikeFreshBuild(t *testing.T) {
	oct := DefaultConfig(0.004)
	oct.Transactions = 150
	ocbWrites := oct
	ocbWrites.Workload = WorkloadOCB
	ocbWrites.OCB.ReadWriteRatio = 3
	withinBuffer := oct
	withinBuffer.Cluster = core.PolicyWithinBuffer
	for _, base := range []Config{oct, ocbWrites, withinBuffer} {
		for _, repl := range registered(buffer.PolicyNames(), func(name string) any {
			p, err := buffer.NewPolicyByName(name, buffer.PolicyConfig{Frames: 8})
			if err != nil {
				t.Fatal(err)
			}
			return p.Name()
		}) {
			for _, strat := range registered(core.ClusterStrategyNames(), func(name string) any {
				s, err := core.NewClusterStrategy(name, core.ClusterSeam{})
				if err != nil {
					t.Fatal(err)
				}
				return reflect.TypeOf(s)
			}) {
				cfg := base
				cfg.ReplacementName, cfg.ClusterStrategy = repl, strat
				t.Run(cfg.Label(), func(t *testing.T) { checkClones(t, cfg) })
			}
		}
	}
}

// registered returns one name per distinct implementation among a
// registry's names, which list aliases beside canonical names; identity
// tells the implementation a name builds.
func registered(names []string, identity func(string) any) []string {
	seen := map[any]bool{}
	var out []string
	for _, n := range names {
		if id := identity(n); !seen[id] {
			seen[id] = true
			out = append(out, n)
		}
	}
	return out
}

func checkClones(t *testing.T, cfg Config) {
	other := cfg
	other.ReadWriteRatio, other.Users, other.Transactions = 2, 3, 40
	other.Locking = !cfg.Locking
	other.Prefetch = core.PrefetchWithinDB
	tmpl, err := NewTemplate(other)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.ClusterStrategy != registry.Canonical(failingStrategy); tmpl.Cloneable() != want {
		t.Fatalf("template cloneable = %v, want %v", tmpl.Cloneable(), want)
	}

	fresh := runEngine(t, New, cfg)
	for i, run := range []func(Config) (*Engine, error){tmpl.Engine, tmpl.Engine, tmpl.Take} {
		got := runEngine(t, run, cfg)
		if got.LogicalDigest != fresh.LogicalDigest || got.FinalStateDigest != fresh.FinalStateDigest ||
			got.MeanResponse != fresh.MeanResponse {
			t.Fatalf("run %d: digests %016x/%016x mean %v, fresh build %016x/%016x mean %v", i,
				got.LogicalDigest, got.FinalStateDigest, got.MeanResponse,
				fresh.LogicalDigest, fresh.FinalStateDigest, fresh.MeanResponse)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("run %d: results differ from the fresh build's\n got %+v\nwant %+v", i, got, fresh)
		}
	}
	if _, err := tmpl.Engine(cfg); err == nil {
		t.Fatal("a taken template still hands out clones")
	}
}

func runEngine(t *testing.T, newEngine func(Config) (*Engine, error), cfg Config) Results {
	t.Helper()
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A template serves only configurations that build its world.
func TestTemplateRefusesOtherWorld(t *testing.T) {
	cfg := DefaultConfig(0.004)
	cfg.Transactions = 20
	tmpl, err := NewTemplate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Buffers++
	if _, err := tmpl.Engine(other); err == nil {
		t.Fatal("a clone was handed to a configuration with more buffers")
	}
	if _, err := tmpl.Take(other); err == nil {
		t.Fatal("the template was handed to a configuration with more buffers")
	}
}
