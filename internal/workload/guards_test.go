package workload

import (
	"testing"

	"selfserv/internal/expr"
	"selfserv/internal/service"
)

func TestTravelGuards(t *testing.T) {
	guards := TravelGuards()
	domestic, near := guards["domestic"], guards["near"]
	if domestic == nil || near == nil {
		t.Fatal("guards missing")
	}

	v, err := domestic([]expr.Value{expr.StringVal("sydney")})
	if err != nil || !v.IsTrue() {
		t.Fatalf("domestic(sydney) = %v, %v", v, err)
	}
	v, err = domestic([]expr.Value{expr.StringVal("tokyo")})
	if err != nil || v.IsTrue() {
		t.Fatalf("domestic(tokyo) = %v, %v", v, err)
	}
	if _, err := domestic(nil); err == nil {
		t.Error("domestic() arity not checked")
	}
	if _, err := domestic([]expr.Value{expr.Number(1)}); err == nil {
		t.Error("domestic(number) type not checked")
	}

	v, err = near([]expr.Value{expr.Number(10)})
	if err != nil || !v.IsTrue() {
		t.Fatalf("near(10) = %v, %v", v, err)
	}
	v, err = near([]expr.Value{expr.Number(120)})
	if err != nil || v.IsTrue() {
		t.Fatalf("near(120) = %v, %v", v, err)
	}
	if _, err := near([]expr.Value{expr.StringVal("x")}); err == nil {
		t.Error("near(string) type not checked")
	}

	// The guards compose with the expression language as used in charts.
	env := expr.NewMapEnv().BindText("destination", "melbourne").BindText("attractionDistance", "180")
	for name, fn := range guards {
		env.BindFunc(name, fn)
	}
	guard, err := expr.Compile("domestic(destination) and not near(attractionDistance)")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := guard.EvalBool(env)
	if err != nil || !ok {
		t.Fatalf("composed guard = %v, %v", ok, err)
	}
}

func TestRegisterIncrementProviders(t *testing.T) {
	sc := Chain(3)
	reg := service.NewRegistry()
	RegisterIncrementProviders(reg, sc, service.SimulatedOptions{})
	for _, svc := range sc.Services() {
		if _, err := reg.Lookup(svc); err != nil {
			t.Fatalf("service %s not registered: %v", svc, err)
		}
	}
}
