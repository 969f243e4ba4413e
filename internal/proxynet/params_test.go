package proxynet

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/netsim"
	"repro/internal/world"
)

// paramsLeaves lists every leaf of a Params — each scalar field and
// each array element — by its path, as settable values of *p.
func paramsLeaves(p *netsim.Params) map[string]reflect.Value {
	leaves := map[string]reflect.Value{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			leaves[path[1:]] = v
		}
	}
	walk("", reflect.ValueOf(p).Elem())
	return leaves
}

// perturb moves a leaf: ×1.5, a zero to one unit (1, or a millisecond),
// a bool to its opposite.
func perturb(t *testing.T, v reflect.Value) {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.Kind() == reflect.Float64 && v.Float() == 0:
		v.SetFloat(1)
	case v.Kind() == reflect.Float64:
		v.SetFloat(v.Float() * 1.5)
	case v.Type() == reflect.TypeOf(time.Duration(0)) && v.Int() == 0:
		v.SetInt(int64(time.Millisecond))
	case v.Type() == reflect.TypeOf(time.Duration(0)):
		v.SetInt(v.Int() * 3 / 2)
	default:
		t.Fatalf("Params leaf of type %s: teach perturb to move it", v.Type())
	}
}

// liveCountries are drawDigest's exit countries.
var liveCountries = []string{"TD", "KE", "BR", "IT", "US"}

// drawDigest runs a fixed set of measurements on a Sim with params and
// folds every observation and ground truth into one number: 60 exit
// nodes in each of four countries, one per income group, and in a
// Super-Proxy country; on each, every provider over DoH, Do53 once,
// and DoT and DoQ on one provider each.
func drawDigest(params netsim.Params) uint64 {
	sim := NewSim(5)
	sim.Params = params
	var h uint64 = 14695981039346656037
	mix := func(vs ...int64) {
		for _, v := range vs {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	d := func(x time.Duration) int64 { return int64(x) }
	for i := 0; i < 300; i++ {
		node, err := sim.SelectExitNode(liveCountries[i%len(liveCountries)])
		if err != nil {
			panic(err)
		}
		for _, pid := range anycast.ProviderIDs() {
			obs, gt := sim.MeasureDoH(node, pid, "p.a.com.")
			mix(d(obs.TD), d(gt.TDoH), int64(math.Float64bits(gt.PoPDistanceKm)))
		}
		obs, gt := sim.MeasureDo53(node, "p.a.com.")
		mix(d(obs.Tun.DNS), d(obs.Tun.Connect), d(gt.TDo53))
		for tr := Transport(0); tr < NumTransports; tr++ {
			obs, gt := sim.MeasureSession(tr, node, anycast.ProviderIDs()[i%anycast.NumProviders], "p.a.com.")
			mix(d(obs.TD), d(gt.First))
		}
	}
	return h
}

// TestEveryParamIsLive: a field of Params nothing reads is a constant in
// disguise. Moving any one leaf of DefaultParams must move at least one
// draw of the fixed workload.
func TestEveryParamIsLive(t *testing.T) {
	// One exit country per income group, then a Super-Proxy country.
	for i, code := range liveCountries[:4] {
		if ct := world.MustByCode(code); world.IsSuperProxyCountry(code) || int(ct.Income) != i {
			t.Fatalf("%s: income group %v, Super Proxy %v; the workload needs income group %d measured at the exit",
				code, ct.Income, world.IsSuperProxyCountry(code), i)
		}
	}
	base := netsim.DefaultParams()
	want := drawDigest(base)
	leaves := paramsLeaves(&base)
	if len(leaves) < 37 {
		t.Fatalf("walked %d leaves of Params, want every one", len(leaves))
	}
	for path := range leaves {
		path := path
		t.Run(path, func(t *testing.T) {
			t.Parallel()
			p := netsim.DefaultParams()
			perturb(t, paramsLeaves(&p)[path])
			if drawDigest(p) == want {
				t.Errorf("moving %s moved no draw: nothing reads it", path)
			}
		})
	}
}
