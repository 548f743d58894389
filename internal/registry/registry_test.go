package registry

import (
	"reflect"
	"testing"
)

type factory func() string

func newTestRegistry() *Registry[factory] {
	r := New[factory]("pkg", "RegisterThing", "thing")
	r.Register("First-Thing", func() string { return "first" }, "one")
	return r
}

// TestRegisterPanics pins the three registration refusals and their texts,
// which the buffer, storage and core registries inherit word for word.
func TestRegisterPanics(t *testing.T) {
	ok := func() string { return "" }
	for _, tc := range []struct {
		name    string
		reg     string
		f       factory
		aliases []string
		want    string
	}{
		{"nil factory", "second", nil, nil, "pkg: RegisterThing with nil factory"},
		{"empty name", " -_ ", ok, nil, "pkg: RegisterThing with empty name"},
		{"empty alias", "second", ok, []string{""}, "pkg: RegisterThing with empty name"},
		{"duplicate name", "first_thing", ok, nil, `pkg: thing "first_thing" registered twice`},
		{"duplicate alias", "second", ok, []string{"ONE"}, `pkg: thing "ONE" registered twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic = %v, want %q", got, tc.want)
				}
			}()
			newTestRegistry().Register(tc.reg, tc.f, tc.aliases...)
		})
	}
}

func TestLookupFoldsNames(t *testing.T) {
	r := newTestRegistry()
	for _, n := range []string{"First-Thing", "first_thing", " FIRST THING ", "one"} {
		f, err := r.Lookup(n)
		if err != nil || f() != "first" {
			t.Fatalf("Lookup(%q) = %v", n, err)
		}
		if !r.Has(n) {
			t.Fatalf("Has(%q) = false", n)
		}
	}
	if r.Has("second") {
		t.Fatal(`Has("second") = true`)
	}
	_, err := r.Lookup("second")
	if want := `pkg: unknown thing "second" (have firstthing)`; err == nil || err.Error() != want {
		t.Fatalf("Lookup error = %v, want %q", err, want)
	}
	if got, want := r.Names(), []string{"firstthing"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}
