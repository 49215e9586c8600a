package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUnknownRuleExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-rules", "bogus", "./..."}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), `nocvet: unknown rule "bogus"`) {
		t.Errorf("stderr = %q, want it to name the bad rule with the nocvet: prefix", errb.String())
	}
}

func TestListNamesEveryRule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	names := []string{
		"wallclock", "globalrand", "maprange", "rawconfig", "goroutine",
		"panicmsg", "staleallow",
	}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output is missing rule %s", name)
		}
	}
	if n := strings.Count(out.String(), "\n"); n != len(names) {
		t.Errorf("-list printed %d rules, want %d", n, len(names))
	}
}

func TestExplainPrintsRuleDoc(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-explain", "maprange"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "randomizes map iteration order") {
		t.Errorf("-explain maprange output = %q, want the long-form doc", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-explain", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("-explain bogus: exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `nocvet: unknown rule "bogus"`) {
		t.Errorf("stderr = %q, want the unknown-rule error", errb.String())
	}
}

func TestRuleSubsetRunsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "wallclock,goroutine", "./internal/runner"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
}
