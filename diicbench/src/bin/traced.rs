//! The traced benchmark binary (`--trace 1`): the counting allocator
//! charges heap bytes to the benchmark's spans.

#[global_allocator]
static ALLOC: diicbench::obs::CountingAlloc = diicbench::obs::CountingAlloc;

fn main() {
    std::process::exit(diicbench::run_main(true));
}
