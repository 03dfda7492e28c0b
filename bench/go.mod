// The benchmark is a module of its own so that building it needs no
// file outside bench/ to change; it reaches the system under test
// through the replace below and may import fela/internal/... because
// its module path sits under fela/.
module fela/bench

go 1.22

require fela v0.0.0

replace fela => ../
