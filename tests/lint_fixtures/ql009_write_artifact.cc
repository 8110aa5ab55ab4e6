// QL009 positive: a file that writes durable bytes only through
// WriteArtifact (it defines no *Serialize* function) is still a
// serializing file, so a lossy float format is flagged.
int snprintf_shim(char* buf, int n, const char* fmt, double v);
int WriteArtifact(const char* path, const char* header, const char* body, bool sync);
int SaveWeight(const char* path, double weight) {
  char buf[64];
  snprintf_shim(buf, 64, "w=%.6f\n", weight);
  return WriteArtifact(path, "fmt v1", buf, false);
}
