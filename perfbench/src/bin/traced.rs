//! The traced benchmark binary: counts every allocation and records a
//! span around each layer call.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    perfbench::main(true);
}
