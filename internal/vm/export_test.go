package vm

import "fmt"

// CheckPool verifies a session's storage ownership after a run finished:
// no storage sits twice in the free lists, no free-listed storage backs
// result (nil when the run returned nothing), no parked frame still owns a
// storage, and the session's frame stack is empty.
func CheckPool(m *VM, result Object) error {
	if len(m.stack) != 0 {
		return fmt.Errorf("vm: %d frames left on the session stack", len(m.stack))
	}
	for i, fr := range m.freeFrames {
		if len(fr.allocs) != 0 {
			return fmt.Errorf("vm: recycled frame %d still owns %d storages", i, len(fr.allocs))
		}
	}
	if m.pool == nil {
		return nil
	}
	free := map[*Storage]bool{}
	for key, list := range m.pool.classes {
		for _, st := range list {
			if free[st] {
				return fmt.Errorf("vm: storage %p (%d bytes) is free-listed twice in class %d", st, st.SizeBytes, key.cls)
			}
			free[st] = true
		}
	}
	backs := map[*Storage]bool{}
	collectStorages(result, backs)
	for st := range backs {
		if free[st] {
			return fmt.Errorf("vm: storage %p (%d bytes) backs the result but is free-listed", st, st.SizeBytes)
		}
	}
	return nil
}
