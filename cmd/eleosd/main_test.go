package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestConfigValidate: every flag value the server would accept and
// quietly misread is a start-up error naming the flag; the defaults and
// the documented "0 turns it off" values pass.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the Validate error; "" = valid
	}{
		{"defaults", nil, ""},
		{"features off explicitly", []string{"-slow-batch", "0", "-coalesce", "0", "-read-cache-mb", "0", "-drain-timeout", "0"}, ""},
		{"features on", []string{"-slow-batch", "5ms", "-coalesce", "200us", "-read-cache-mb", "64", "-max-conns", "1", "-max-inflight-mb", "1"}, ""},
		{"max-conns negative refuses every connection", []string{"-max-conns", "-1"}, "-max-conns"},
		{"max-conns zero silently means 256", []string{"-max-conns", "0"}, "-max-conns"},
		{"max-inflight-mb negative admits one batch at a time", []string{"-max-inflight-mb", "-1"}, "-max-inflight-mb"},
		{"max-inflight-mb zero silently means 64", []string{"-max-inflight-mb", "0"}, "-max-inflight-mb"},
		{"drain-timeout negative hard-closes", []string{"-drain-timeout", "-5"}, "-drain-timeout"},
		{"read-cache-mb negative turns the cache off", []string{"-read-cache-mb", "-1"}, "-read-cache-mb"},
		{"coalesce negative turns coalescing off", []string{"-coalesce", "-1ms"}, "-coalesce"},
		{"slow-batch negative turns the log off", []string{"-slow-batch", "-1s"}, "-slow-batch"},
		{"stray argument drops the flags after it", []string{"-format", "false", "-max-conns", "4"}, `"false"`},
	} {
		cfg, err := parseFlags(tc.args, io.Discard)
		if err != nil {
			t.Errorf("%s: parse: %v", tc.name, err)
			continue
		}
		err = cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: valid config rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestParseFlags: all twelve flags land in their config field, and a
// syntax error comes back as an error instead of exiting the process.
func TestParseFlags(t *testing.T) {
	got, err := parseFlags([]string{
		"-addr", "127.0.0.1:1", "-img", "d.img", "-format", "-channels", "2", "-eblocks", "16",
		"-max-conns", "3", "-max-inflight-mb", "4", "-drain-timeout", "5", "-debug-addr", "127.0.0.1:2",
		"-slow-batch", "6ms", "-coalesce", "7us", "-read-cache-mb", "8",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		addr: "127.0.0.1:1", img: "d.img", format: true, channels: 2, eblocks: 16,
		maxConns: 3, inflightMB: 4, drainSecs: 5, debugAddr: "127.0.0.1:2",
		slowBatch: 6 * time.Millisecond, coalesce: 7 * time.Microsecond, readCacheMB: 8,
		extra: []string{},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("parsed config rejected: %v", err)
	}
	for _, bad := range [][]string{{"-no-such-flag"}, {"-max-conns", "many"}, {"-coalesce", "5"}} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}
