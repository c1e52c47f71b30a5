package service

import (
	"reflect"
	"strings"
	"testing"
)

// nonDefaultFor returns a valid non-default value for one GenOptions
// field, chosen so resolve() still accepts the options.
func nonDefaultFor(t *testing.T, f reflect.StructField, fv reflect.Value) {
	t.Helper()
	switch f.Name {
	case "Placer":
		fv.SetString("epitaxial")
	case "Algorithm":
		fv.SetString("lee-bends")
	case "DegradeMode":
		fv.SetString("strict")
	case "RouteOrder":
		fv.SetString("design")
	default:
		switch fv.Kind() {
		case reflect.Int:
			fv.SetInt(3)
		case reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("GenOptions.%s has kind %v — teach this test a value for it", f.Name, fv.Kind())
		}
	}
}

// TestGenOptionsCacheKeyCoverage walks every GenOptions field by
// reflection: flipping a field to a non-default value must change the
// canonical cache key. A new field added without a canonical() entry
// fails here, which is exactly the drift this table-of-truth test
// exists to catch.
func TestGenOptionsCacheKeyCoverage(t *testing.T) {
	base := GenOptions{}
	bopts, err := base.resolve()
	if err != nil {
		t.Fatal(err)
	}
	baseKey := base.canonical(bopts.Degrade)

	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		t.Run(f.Name, func(t *testing.T) {
			v := reflect.New(rt).Elem()
			nonDefaultFor(t, f, v.Field(i))
			o := v.Interface().(GenOptions)
			opts, err := o.resolve()
			if err != nil {
				t.Fatalf("non-default %s rejected by resolve: %v", f.Name, err)
			}
			if o.canonical(opts.Degrade) == baseKey {
				t.Errorf("result-affecting field %s does not participate in the cache key", f.Name)
			}
		})
	}
}

// TestGenOptionsJSONTagTable pins the flag ↔ JSON naming contract:
// each GenOptions field's JSON tag is the snake_case twin of the CLI
// flag documented in DESIGN.md's naming table. Renames must update
// table, tag and docs together.
func TestGenOptionsJSONTagTable(t *testing.T) {
	want := map[string]string{
		"Placer":         "placer",
		"PartSize":       "part_size",
		"BoxSize":        "box_size",
		"MaxConnections": "max_connections",
		"PartSpacing":    "part_spacing",
		"BoxSpacing":     "box_spacing",
		"ModSpacing":     "mod_spacing",
		"Algorithm":      "algorithm",
		"NoClaimpoints":  "no_claimpoints",
		"SwapObjective":  "swap_objective",
		"RouteOrder":     "route_order",
		"RipUp":          "rip_up",
		"DualFront":      "dual_front",
		"Margin":         "margin",
		"DegradeMode":    "degrade_mode",
	}
	rt := reflect.TypeOf(GenOptions{})
	if rt.NumField() != len(want) {
		t.Fatalf("GenOptions has %d fields, the naming table lists %d — update both together",
			rt.NumField(), len(want))
	}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag != want[f.Name] {
			t.Errorf("GenOptions.%s json tag %q, naming table says %q", f.Name, tag, want[f.Name])
		}
	}
}
