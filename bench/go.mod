module oodb/bench

go 1.22

require oodb v0.0.0

replace oodb => ../
