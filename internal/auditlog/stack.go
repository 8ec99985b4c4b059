package auditlog

import "queryaudit/internal/core"

// StackConfig is core.StackConfig, under the name bench/ uses.
type StackConfig = core.StackConfig

// DefaultStackConfig returns core.DefaultStackConfig().
func DefaultStackConfig() StackConfig { return core.DefaultStackConfig() }
