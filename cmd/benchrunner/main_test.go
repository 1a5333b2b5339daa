package main

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// stub replaces every experiment's runner with one that appends the
// experiment's name to *ran, so dispatch is tested without simulating.
func stub(exps []*experiment, ran *[]string) {
	for _, e := range exps {
		if e.name == "all" {
			continue // the loop under test
		}
		e.run = func(io.Writer) error {
			*ran = append(*ran, e.name)
			return nil
		}
	}
}

func TestExperimentNamesUniqueAndInUsage(t *testing.T) {
	exps := experiments()
	var usage bytes.Buffer
	printUsage(&usage, exps)
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.name] {
			t.Errorf("experiment %q declared twice", e.name)
		}
		seen[e.name] = true
		if e.usage == "" || !strings.Contains(usage.String(), "  "+e.name+" ") {
			t.Errorf("experiment %q missing from usage:\n%s", e.name, usage.String())
		}
	}
	for _, name := range allOrder {
		if !seen[name] {
			t.Errorf("`all` names %q, which is not an experiment", name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nosuch"},
		{"fig9", "-json", "x.json"}, // waf's flag
		{"waf", "-txns", "400"},     // fig9's flag
		{"-txns", "400", "fig9"},    // the old flags-first grammar
		{"fig1", "extra"},
	} {
		var ran []string
		exps := experiments()
		stub(exps, &ran)
		var out, errOut bytes.Buffer
		if code := run(args, exps, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if len(ran) != 0 {
			t.Errorf("%q: ran %v despite the usage error", args, ran)
		}
		if !strings.Contains(errOut.String(), "experiments:") || !strings.Contains(errOut.String(), "  waf ") {
			t.Errorf("%q: no experiment list on stderr:\n%s", args, errOut.String())
		}
	}
}

func TestFlagsAfterNameReachTheRunner(t *testing.T) {
	seen := map[string]string{}
	exps := experiments()
	for _, e := range exps {
		switch e.name {
		case "fig9":
			e.run = func(io.Writer) error {
				seen["txns"] = e.fs.Lookup("txns").Value.String()
				return nil
			}
		case "waf":
			e.run = func(io.Writer) error {
				seen["json"] = e.fs.Lookup("json").Value.String()
				return nil
			}
		}
	}
	for _, args := range [][]string{{"fig9", "-txns", "40"}, {"waf"}} {
		var out, errOut bytes.Buffer
		if code := run(args, exps, &out, &errOut); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, errOut.String())
		}
	}
	if seen["txns"] != "40" {
		t.Fatalf("fig9's runner saw -txns %q, want 40", seen["txns"])
	}
	if v, ok := seen["json"]; !ok || v != "" {
		t.Fatalf("waf's -json defaults to %q (ran: %v): a plain run would write into the working tree", v, ok)
	}
}

func TestFig1RunsAndPrints(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"fig1"}, experiments(), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Fig. 1") || errOut.Len() != 0 {
		t.Fatalf("stdout:\n%s\nstderr:\n%s", out.String(), errOut.String())
	}
}

func TestAllRunsThePaperFiguresInOrder(t *testing.T) {
	var ran []string
	exps := experiments()
	stub(exps, &ran)
	var out, errOut bytes.Buffer
	if code := run([]string{"all", "-txns", "40"}, exps, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := []string{"fig1", "fig9", "table2", "fig10a", "fig10b", "fig10c"}
	if !reflect.DeepEqual(ran, want) {
		t.Fatalf("all ran %v, want %v", ran, want)
	}
	// The trace is collected once, ahead of the first figure.
	if n := strings.Count(out.String(), "collecting TPC-C trace (40 transactions)"); n != 1 {
		t.Fatalf("trace collected %d times:\n%s", n, out.String())
	}
}
