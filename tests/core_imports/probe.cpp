// Links every object of the hpcs_core archive (tests/CMakeLists.txt); see check.cmake.
int main() { return 0; }
