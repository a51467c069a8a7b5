fn main() {
    std::process::exit(pgas_benchmark::cli::main());
}
