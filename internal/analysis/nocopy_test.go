package analysis_test

import (
	"reflect"
	"sync"
	"testing"

	"valora/internal/lora"
	"valora/internal/sim"
)

// TestNoCopyMarkers pins the markers `go vet`'s copylocks check relies
// on: sim.Timeline and lora.Pool must each hold a field whose pointer
// implements sync.Locker, or vet stops flagging copies of them.
func TestNoCopyMarkers(t *testing.T) {
	locker := reflect.TypeFor[sync.Locker]()
	for _, typ := range []reflect.Type{reflect.TypeFor[sim.Timeline](), reflect.TypeFor[lora.Pool]()} {
		marked := false
		for i := range typ.NumField() {
			if reflect.PointerTo(typ.Field(i).Type).Implements(locker) {
				marked = true
			}
		}
		if !marked {
			t.Errorf("%v has no field whose pointer implements sync.Locker: go vet no longer flags copies of it", typ)
		}
	}
}
