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
	for _, name := range []string{
		"wallclock", "globalrand", "maprange", "rawconfig", "goroutine",
		"panicmsg", "handleleak", "staleallow",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output is missing rule %s", name)
		}
	}
}

func TestExplainPrintsRuleDoc(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-explain", "handleleak"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "branch-sensitive") {
		t.Errorf("-explain handleleak output = %q, want the long-form doc", out.String())
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
