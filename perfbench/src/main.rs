//! The end-to-end benchmark binary: system allocator, no spans.

fn main() {
    perfbench::main(false);
}
