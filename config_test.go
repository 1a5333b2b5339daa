package eleos_test

import (
	"reflect"
	"slices"
	"testing"

	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/readcache"
	"eleos/internal/server"
)

// settable lists the exported leaf fields of struct type t, walking into
// nested structs (server.Config's QoS and its Limits) and stopping at
// anything else: a duration, a map, a pointer or an interface is one value.
func settable(t reflect.Type, prefix string) []string {
	var out []string
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, settable(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestConfigSurface pins every value a caller can set on the controller,
// the server, the client and the read cache. Each one but QoS.Clock, the
// test seam for time, has a production caller (DESIGN.md §4.2); anything
// only a test would set is a constant. A new setting fails here until this
// list and that table change in the same diff.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		typ  any
		want []string
	}{
		{core.Config{}, []string{"GCFreeFraction", "GCMaxRounds", "AutoCheckpointLogBytes", "ReadCacheBytes"}},
		{server.Config{}, []string{
			"MaxConns", "MaxInflightBytes", "IdleTimeout", "IOTimeout", "SlowBatchThreshold", "CoalesceWindow",
			"QoS.Enabled", "QoS.Default.RateBytesPerSec", "QoS.Default.BurstBytes", "QoS.Default.MaxInflightBytes",
			"QoS.Tenants", "QoS.Clock",
		}},
		{client.Options{}, []string{"DialTimeout", "RequestTimeout", "MaxAttempts", "BackoffBase", "BackoffMax", "Seed"}},
		{readcache.Config{}, []string{"CapacityBytes", "Metrics"}},
	} {
		typ := reflect.TypeOf(c.typ)
		if got := settable(typ, ""); !slices.Equal(got, c.want) {
			t.Errorf("%v settable values:\n got %v\nwant %v", typ, got, c.want)
		}
	}
}
