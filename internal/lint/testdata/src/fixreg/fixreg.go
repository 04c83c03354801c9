// Package fixreg exercises the registry analyzer. Its synthetic import path
// places it under twl/internal/wl/, so exported schemes must call
// wl.Register.
package fixreg

import "twl/internal/wl"

// Orphan implements wl.Scheme via embedding, but the package never calls
// wl.Register: the rule fires.
type Orphan struct{ wl.Scheme }

// hidden implements wl.Scheme but is unexported; the rule polices only the
// exported API, so this is clean.
type hidden struct{ wl.Scheme }
