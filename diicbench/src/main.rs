//! The end-to-end benchmark binary (`--trace 0`): the system allocator,
//! no spans.

fn main() {
    std::process::exit(diicbench::run_main(false));
}
